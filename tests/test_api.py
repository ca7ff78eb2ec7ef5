"""The public names of the package resolve, and the layer tracer can wrap them."""

import importlib
import importlib.util
import pathlib
import pkgutil

import numpy as np
import pytest

import tucksketch
from tucksketch.rng import RngStream

MODULES = sorted(m.name for m in pkgutil.iter_modules(tucksketch.__path__))
LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.mark.parametrize("name", ["tucksketch"] + [f"tucksketch.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert missing == []


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layer_tracer_installs_and_restores_every_attribute():
    layertrace = load_layertrace()
    owners = [tucksketch, RngStream] + [importlib.import_module(f"tucksketch.{m}") for m in MODULES]
    before = [dict(vars(owner)) for owner in owners]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for owner, attr in ((tucksketch.linalg, "sketch"), (tucksketch.tucker, "truncated_svd")):
            assert getattr(owner, attr) is not before[owners.index(owner)][attr]
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == attrs.keys()
        assert all(after[key] is value for key, value in attrs.items()), owner


@pytest.mark.parametrize("name, fallbacks", [("sketch_sthosvd", 1), ("r_sthosvd", 0)])
def test_layer_tracer_counts_fallback_modes(name, fallbacks):
    # The benchmark counts a mode's deterministic fallback as a
    # truncated_svd span directly under a randomized pipeline, which it sees
    # only if the pipelines look the kernels up by name at call time. Mode
    # 3 is full rank: the sketch falls back there, R-STHOSVD samples it
    # with p = 0.
    layertrace = load_layertrace()
    x = np.random.default_rng(0).standard_normal((10, 9, 3))
    cfg = tucksketch.ApproxConfig(target_ranks=(3, 3, 3))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active, tracer.trial = True, 0
        getattr(tucksketch.tucker, name)(x, cfg, RngStream(0))
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = layertrace.layer_metrics(tracer.spans, {})
    assert metrics["tucker.fallback_modes"] == (fallbacks, "count")
    assert metrics[f"tucker.{name}.ms"][0] > 0


def test_layer_tracer_sees_every_pipeline_run_trial_calls():
    # bench.run_trial looks each pipeline up on tucksketch.tucker when it is
    # called, so the wrapper the tracer binds there records the call
    from tucksketch.bench import ALGORITHMS, run_trial

    layertrace = load_layertrace()
    x = np.random.default_rng(0).standard_normal((6, 5, 4))
    cfg = tucksketch.ApproxConfig(target_ranks=(2, 2, 2))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active, tracer.trial = True, 0
        for key in ALGORITHMS:
            run_trial("unit", key, x, cfg)
    finally:
        tracer.active = False
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {f"tucker.{pipeline}" for _, pipeline in ALGORITHMS.values()} <= names

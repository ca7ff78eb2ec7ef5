"""Generators for the experiment tensor families and the scaled-noise model.

Every generator returns a column-major tensor, the layout that
`tensor.unfold` reads without a copy in modes 1 and N, and the noise model
keeps the layout of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import ceil, inf, isfinite, prod

import numpy as np

from .config import _integers
from .rng import RngStream

__all__ = [
    "SparseGenConfig",
    "hilbert_tensor",
    "sparse_lowrank_tensor",
    "term_weights",
    "sparse_factor_vectors",
    "gaussian_tensor",
    "add_scaled_noise",
]


# The paper's sparse family: the first 10 of its 200 rank-1 terms carry gamma,
# and 5% of each factor vector's entries are nonzero.
_LEADING_TERMS, _TOTAL_TERMS, _DENSITY = 10, 200, 0.05


@dataclass(frozen=True)
class SparseGenConfig:
    """Cubic n x n x n tensor built from the paper's 200 weighted sparse rank-1 terms.

    The first 10 terms carry weight gamma / i^2, the remaining 190 carry
    1 / i^2; gamma controls the strength of the spectral gap between the two
    groups. Each factor vector gets ceil(0.05 n) nonzeros at uniformly
    drawn distinct positions with uniform(0, 1) values. gamma must be
    positive and finite; n and seed take integers only.
    """

    n: int
    gamma: float
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "seed"):
            object.__setattr__(self, name, _integers(name, getattr(self, name), scalar=True))
        if self.n < 1:
            raise ValueError("side length must be positive")
        if not (self.gamma > 0 and isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")


def _dims(dims) -> tuple[int, ...]:
    """dims as a tuple of ints, checked nonempty and positive."""
    dims = _integers("dims", dims)
    if len(dims) == 0 or any(d < 1 for d in dims):
        raise ValueError("dims must be a nonempty tuple of positive integers")
    return dims


def hilbert_tensor(dims) -> np.ndarray:
    """Entry (i_1, ..., i_N) is 1 / (i_1 + ... + i_N) with 1-based indices.

    The tensor is built column-major: the index sums are formed over the
    reversed dims in row-major order and transposed. Sums of small integers
    are exact, so every entry is the correctly rounded reciprocal.
    """
    dims = _dims(dims)
    grids = np.ix_(*(np.arange(1, d + 1, dtype=np.float64) for d in reversed(dims)))
    sums = reduce(np.add, grids)
    return np.divide(1.0, sums, out=sums).T


def term_weights(cfg: SparseGenConfig) -> np.ndarray:
    """The 200 per-term weights: gamma / i^2 for the first 10, 1 / i^2 after."""
    i = np.arange(1, _TOTAL_TERMS + 1, dtype=np.float64)
    w = 1.0 / i**2
    w[:_LEADING_TERMS] *= cfg.gamma
    return w


def sparse_factor_vectors(cfg: SparseGenConfig, rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three (200, n) stacks of sparse factor vectors, one row per term, drawn in term order."""
    nnz = ceil(_DENSITY * cfg.n)
    stacks = tuple(np.zeros((_TOTAL_TERMS, cfg.n)) for _ in range(3))
    for t in range(_TOTAL_TERMS):
        for stack in stacks:
            positions = rng.index_sample(cfg.n, nnz)
            stack[t, positions] = rng.uniform(nnz)
    return stacks


def sparse_lowrank_tensor(cfg: SparseGenConfig, rng: RngStream | None = None) -> np.ndarray:
    """Dense n x n x n tensor from cfg's weighted sparse rank-1 terms.

    The sum over terms t of w_t x_t o y_t o z_t, formed column-major.
    """
    rng = rng if rng is not None else RngStream(cfg.seed)
    xs, ys, zs = sparse_factor_vectors(cfg, rng)
    return np.einsum("ti,tj,tk->ijk", term_weights(cfg)[:, None] * xs, ys, zs, optimize=True, order="F")


def gaussian_tensor(dims, rng: RngStream) -> np.ndarray:
    """Tensor of i.i.d. N(0, 1) entries, filled first-index-fastest."""
    dims = _dims(dims)
    return rng.normal(prod(dims)).reshape(dims, order="F")


def add_scaled_noise(x: np.ndarray, delta: float, rng: RngStream) -> np.ndarray:
    """x plus delta times a standard Gaussian tensor; delta = 0 draws nothing.

    delta must be finite and nonnegative. For a target signal-to-noise ratio
    of s dB on a tensor whose mean squared entry is P, take
    delta = sqrt(P / 10^(s/10)).
    """
    if not 0 <= delta < inf:
        raise ValueError(f"noise scale must be finite and nonnegative, got {delta!r}")
    if delta == 0.0:
        return x.copy(order="K")
    return x + delta * gaussian_tensor(x.shape, rng)

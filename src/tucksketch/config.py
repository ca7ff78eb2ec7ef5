"""Shared configuration for the Tucker approximation pipelines."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = ["ApproxConfig", "ModePlan"]

# The fields of `ApproxConfig` that hold one integer; the others hold tuples.
_SCALARS = ("oversample", "power_iters", "seed")


def _integers(name: str, value, scalar: bool = False):
    """value as an int (scalar) or a tuple of ints, by ``operator.index``.

    So NumPy integers pass and a float, which ``int`` would truncate, is a
    ValueError that names the field. Every integer field of the package's
    configs, the generators' dims and `tensor.fold`'s dims go through it.
    """
    try:
        return operator.index(value) if scalar else tuple(map(operator.index, value))
    except TypeError:
        raise ValueError(f"{name} takes integers only, got {value!r}") from None


@dataclass(frozen=True)
class ModePlan:
    """One mode's step of a sequential pipeline: the sizes a per-mode kernel may run with.

    mode         1-based mode index
    rank         target rank r_n
    p            oversampling of a randomized SVD step
    l            sketch size of a two-sided sketch step, clamped to I_n and at
                 least r_n + 2 (`ApproxConfig` says why); None where
                 I_n < r_n + 2 and no sketch size fits
    """

    mode: int
    rank: int
    p: int
    l: int | None


@dataclass(frozen=True)
class ApproxConfig:
    """Parameters shared by all pipelines.

    target_ranks      per-mode target ranks r_n, 1 <= r_n <= I_n and
                      r_n <= the product of the other ranks
    processing_order  1-based permutation of 1..len(target_ranks); natural
                      order if None
    oversample        extra random columns of Omega for the randomized SVD pipeline
    sketch_sizes      per-mode sketch sizes l_n (>= r_n + 2); defaults to 2 r_n + 1
    power_iters       subspace power iterations for the sub-sketch pipeline
    seed              stream seed used when no explicit RngStream is supplied

    Every field is an integer or a tuple of integers: a value that
    ``operator.index`` refuses, such as 2.7 or 1.5, is a ValueError that
    names its field, never truncated. NumPy integers pass and are stored as
    Python ints.

    The sketch pipelines draw k = r_n columns and l_n rows per mode. The
    two-sided correction multiplies the expected squared error by
    1 + r_n / (l_n - r_n - 1) (Tropp, Yurtsever, Udell and Cevher, SIMAX
    2017, Thm 4.3): the default l_n = 2 r_n + 1 makes that factor 2, where
    l_n = r_n + 2 makes it r_n + 1. The theorem assumes l_n > k + 1, so a
    size below r_n + 2 is rejected here, and `plan` gives a mode with
    I_n < r_n + 2, where the clamp to I_n would break that rule, no sketch
    size.

    Every tensor's multilinear rank has r_n <= prod_{m != n} r_m, since the
    mode-n unfolding of a Tucker model is U_n G_(n) (kron of the other
    U_m)^T (De Lathauwer, De Moor and Vandewalle, SIMAX 2000). Ranks that no
    tensor has, such as (2, 2, 6) or any rank above 1 of an order-1 tensor,
    are rejected here. So every unfolding a pipeline factors has at least
    r_n columns.

    `plan(shape)` is the one place that turns these fields into per-mode
    sizes for a tensor of a given shape: it checks the ranks and the order
    against the shape, and gives each mode, in processing order, a
    `ModePlan` with its p and its clamped l_n, or no l_n. Which kernel runs
    on a mode is the pipeline's choice, made in `tucksketch.tucker`. All
    five pipelines run it, `metrics.bound_oracle` bounds it, and the bench
    checks rank sets with it before building any data.
    """

    target_ranks: tuple[int, ...]
    processing_order: tuple[int, ...] | None = None
    oversample: int = 5
    sketch_sizes: tuple[int, ...] | None = None
    power_iters: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("target_ranks", "processing_order", "sketch_sizes") + _SCALARS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integers(name, getattr(self, name), scalar=name in _SCALARS))
        if len(self.target_ranks) == 0 or any(r < 1 for r in self.target_ranks):
            raise ValueError("target ranks must be a nonempty tuple of positive integers")
        for n, r in enumerate(self.target_ranks, start=1):
            others = math.prod(self.target_ranks) // r
            if r > others:
                raise ValueError(f"target rank {r} of mode {n} exceeds {others}, the product of the other ranks")
        if self.processing_order is not None:
            ndim = len(self.target_ranks)
            if sorted(self.processing_order) != list(range(1, ndim + 1)):
                raise ValueError(f"processing order {self.processing_order} is not a permutation of 1..{ndim}")
        if self.oversample < 0:
            raise ValueError("oversampling must be nonnegative")
        if self.power_iters < 1:
            raise ValueError("power iteration count must be at least 1")
        if self.sketch_sizes is not None:
            if len(self.sketch_sizes) != len(self.target_ranks):
                raise ValueError("sketch_sizes must match target_ranks in length")
            for r, l in zip(self.target_ranks, self.sketch_sizes):
                if l < r + 2:
                    raise ValueError(f"sketch size {l} must be at least target rank {r} + 2")

    def plan(self, shape: tuple[int, ...]) -> tuple[ModePlan, ...]:
        """Each mode's sizes for a tensor of this shape, in processing order.

        Modes are visited in processing order while the core shrinks, so a
        mode's unfolding has I_n rows and as columns the product of the sizes
        left by the modes before it, each at least its r_m; so by the rank
        rule (see above) r_n is within both sides of every unfolding. Each
        mode gets p = min(oversample, min(rows, cols) - r_n), and l_n clamped
        to I_n, or None when I_n < r_n + 2, where the clamped l_n would be
        below r_n + 2. So every sketch size is r_n + 2 <= l_n <= I_n.

        Raises ValueError when the rank count does not match the tensor's
        order, or a rank is above I_n (the constructor has rejected ranks
        below 1, and the processing order and the sketch sizes always match
        the ranks in length).
        """
        ndim, ranks = len(shape), self.target_ranks
        if len(ranks) != ndim:
            raise ValueError(f"{len(ranks)} target ranks given for an order-{ndim} tensor")
        for r, d in zip(ranks, shape):
            if r > d:
                raise ValueError(f"target rank {r} out of range for dimension {d}")
        order = self.processing_order
        if order is None:
            order = tuple(range(1, ndim + 1))
        sizes = self.sketch_sizes
        if sizes is None:
            sizes = tuple(2 * r + 1 for r in ranks)
        dims = list(shape)
        steps = []
        for n in order:
            r, rows = ranks[n - 1], dims[n - 1]
            cols = math.prod(dims) // rows
            l = min(sizes[n - 1], rows) if r + 2 <= rows else None
            steps.append(ModePlan(n, r, min(self.oversample, min(rows, cols) - r), l))
            dims[n - 1] = r
        return tuple(steps)

"""Shared configuration for the Tucker approximation pipelines."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ApproxConfig"]


@dataclass(frozen=True)
class ApproxConfig:
    """Parameters shared by all pipelines.

    target_ranks      per-mode target ranks r_n, 1 <= r_n <= I_n
    processing_order  1-based permutation of the modes; natural order if None
    oversample        extra Gaussian columns for the randomized SVD pipeline
    sketch_sizes      per-mode sketch sizes l_n (> r_n); defaults to 2 r_n + 1
    power_iters       subspace power iterations for the sub-sketch pipeline
    seed              stream seed used when no explicit RngStream is supplied

    The sketch pipelines draw k = r_n columns and l_n rows per mode. The
    two-sided correction multiplies the expected squared error by
    1 + r_n / (l_n - r_n - 1) (Tropp, Yurtsever, Udell and Cevher, SIMAX
    2017, Thm 4.3): the default l_n = 2 r_n + 1 makes that factor 2, where
    l_n = r_n + 2 makes it r_n + 1. See `sketch_plan` for the clamp to I_n.
    At l_n = r_n + 1 the factor is infinite: the sketch pipelines warn on
    each mode that runs there, requested or clamped; the config does not,
    since most pipelines never sketch.
    """

    target_ranks: tuple[int, ...]
    processing_order: tuple[int, ...] | None = None
    oversample: int = 5
    sketch_sizes: tuple[int, ...] | None = None
    power_iters: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "target_ranks", tuple(int(r) for r in self.target_ranks))
        if len(self.target_ranks) == 0 or any(r < 1 for r in self.target_ranks):
            raise ValueError("target ranks must be a nonempty tuple of positive integers")
        if self.processing_order is not None:
            order = tuple(int(i) for i in self.processing_order)
            object.__setattr__(self, "processing_order", order)
            if sorted(order) != list(range(1, len(order) + 1)):
                raise ValueError(f"processing order {order} is not a permutation of 1..N")
        if self.oversample < 0:
            raise ValueError("oversampling must be nonnegative")
        if self.power_iters < 1:
            raise ValueError("power iteration count must be at least 1")
        if self.sketch_sizes is not None:
            sizes = tuple(int(l) for l in self.sketch_sizes)
            object.__setattr__(self, "sketch_sizes", sizes)
            if len(sizes) != len(self.target_ranks):
                raise ValueError("sketch_sizes must match target_ranks in length")
            for r, l in zip(self.target_ranks, sizes):
                if l <= r:
                    raise ValueError(f"sketch size {l} must exceed target rank {r}")

    def ranks_for(self, ndim: int) -> tuple[int, ...]:
        if len(self.target_ranks) != ndim:
            raise ValueError(
                f"{len(self.target_ranks)} target ranks given for an order-{ndim} tensor"
            )
        return self.target_ranks

    def order_for(self, ndim: int) -> tuple[int, ...]:
        if self.processing_order is None:
            return tuple(range(1, ndim + 1))
        if len(self.processing_order) != ndim:
            raise ValueError(
                f"processing order {self.processing_order} does not cover {ndim} modes"
            )
        return self.processing_order

    def ranks_and_order(self, shape: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ranks and processing order for a tensor of this shape.

        Raises ValueError when the rank count or the order does not match the
        tensor's order, or a rank is above its dimension (sketch sizes always
        match the ranks in length).
        """
        ranks = self.ranks_for(len(shape))
        for r, d in zip(ranks, shape):
            if not 1 <= r <= d:
                raise ValueError(f"target rank {r} out of range for dimension {d}")
        return ranks, self.order_for(len(shape))

    def sketch_sizes_for(self, ndim: int) -> tuple[int, ...]:
        ranks = self.ranks_for(ndim)
        if self.sketch_sizes is None:
            return tuple(2 * r + 1 for r in ranks)
        return self.sketch_sizes

    def sketch_plan(self, shape: tuple[int, ...]) -> tuple[int | None, ...]:
        """Sketch size each mode of a tensor of this shape runs with.

        Modes are visited in processing order while the core shrinks, as the
        sketch pipelines do. A mode's l_n is clamped to I_n; None marks a
        mode that cannot be sketched (r_n >= I_n, so the clamped l_n <= r_n,
        or r_n above the column count of its unfolding) and is truncated by
        a deterministic SVD instead.
        """
        ndim = len(shape)
        ranks, sizes = self.ranks_for(ndim), self.sketch_sizes_for(ndim)
        dims = list(shape)
        plan: list[int | None] = [None] * ndim
        for n in self.order_for(ndim):
            r, rows = ranks[n - 1], dims[n - 1]
            if r < rows and r <= math.prod(dims) // rows:
                plan[n - 1] = min(sizes[n - 1], rows)
            dims[n - 1] = r
        return tuple(plan)

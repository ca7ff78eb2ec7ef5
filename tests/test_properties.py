"""Properties every pipeline promises on any valid input, drawn by hypothesis.

The strategies draw order 2-4, dims 3-12, ranks under the rank rule of
`ApproxConfig`, a processing order and a row- or column-major layout, so
they reach first modes whose unfolding is tall, randomized steps whose k
equals the column count (no Omega is drawn), and modes with no sketch size
(l_n is None, where the sketch pipelines fall back to a truncated SVD);
``test_strategy_reaches_the_corner_plans`` shows that they do.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st

from tucksketch import tucker
from tucksketch.bench import ALGORITHMS
from tucksketch.config import ApproxConfig


def _rank_rule(ranks: list[int]) -> tuple[int, ...]:
    """ranks lowered until each is at most the product of the others.

    Each pass lowers the first rank that breaks the rule to that product;
    ranks only fall, and all ones obey the rule, so the loop ends.
    """
    while True:
        for n, r in enumerate(ranks):
            others = math.prod(ranks) // r
            if r > others:
                ranks[n] = others
                break
        else:
            return tuple(ranks)


def _non_finite_case(dims, ranks, order, fortran, index, bad, seed=0):
    """(x, cfg): a Gaussian tensor of dims in the chosen layout with x[index] = bad."""
    x = np.random.default_rng(seed).standard_normal(dims)
    x = np.asfortranarray(x) if fortran else np.ascontiguousarray(x)
    x[index] = bad
    return x, ApproxConfig(target_ranks=ranks, processing_order=order)


@st.composite
def non_finite_cases(draw):
    ndim = draw(st.integers(2, 4))
    dims = tuple(draw(st.integers(3, 12)) for _ in range(ndim))
    ranks = _rank_rule([draw(st.integers(1, d)) for d in dims])
    order = tuple(draw(st.permutations(range(1, ndim + 1))))
    index = tuple(draw(st.integers(0, d - 1)) for d in dims)
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return _non_finite_case(dims, ranks, order, draw(st.booleans()), index, bad,
                            draw(st.integers(0, 2**32 - 1)))


def _first_unfolding(case):
    """(rows, cols, first ModePlan) of the first step of case's plan."""
    x, cfg = case
    step = cfg.plan(x.shape)[0]
    rows = x.shape[step.mode - 1]
    return rows, x.size // rows, step


def _tall_first_mode(case):
    rows, cols, _ = _first_unfolding(case)
    return rows > cols


def _sketch_k_is_n(case):
    # the sketch kernels draw k = r_n columns; no Omega when that is all of them
    _, cols, step = _first_unfolding(case)
    return step.l is not None and step.rank == cols


def _rsvd_k_is_n(case):
    _, cols, step = _first_unfolding(case)
    return step.rank + step.p == cols


def _a_mode_without_l(case):
    x, cfg = case
    return any(step.l is None for step in cfg.plan(x.shape))


_CORNERS = [_tall_first_mode, _sketch_k_is_n, _rsvd_k_is_n, _a_mode_without_l]


@pytest.mark.parametrize("corner", _CORNERS, ids=lambda f: f.__name__.strip("_"))
def test_strategy_reaches_the_corner_plans(corner):
    find(
        non_finite_cases(),
        corner,
        settings=settings(max_examples=500, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow]),
    )


# a tall first mode whose sketch and rsvd steps take k = n, with l_1 = 5
@example(case=_non_finite_case((5, 3), (3, 3), (1, 2), True, (4, 2), math.nan))
# the same plan on a row-major tensor, processed from mode 2
@example(case=_non_finite_case((3, 5), (3, 3), (2, 1), False, (0, 0), math.inf))
# no l_n on any mode (I_n < r_n + 2), so the sketch pipelines run SVD steps
@example(case=_non_finite_case((4, 4, 4), (4, 3, 4), None, True, (3, 3, 3), -math.inf))
@given(case=non_finite_cases())
def test_every_pipeline_names_a_non_finite_entry_without_a_warning(case):
    x, cfg = case
    for name, function in ALGORITHMS.values():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as info:
                getattr(tucker, function)(x, cfg)
        assert str(info.value) == "tensor entries must be finite", name
        assert [str(w.message) for w in caught] == [], name

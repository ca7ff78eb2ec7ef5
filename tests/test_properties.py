"""Properties every pipeline promises on any valid input, drawn by hypothesis.

The strategies draw order 2-4, dims 3-12, ranks under the rank rule of
`ApproxConfig`, a processing order and a row- or column-major layout, so
they reach first modes whose unfolding is tall, randomized steps whose k
equals the column count (no Omega is drawn), and modes with no sketch size
(l_n is None, where the sketch pipelines fall back to a truncated SVD);
``test_strategy_reaches_the_corner_plans`` shows that they do.

``non_finite_cases`` puts one NaN or inf in a Gaussian tensor.
``finite_cases`` draws a Gaussian tensor, or one whose mode-1 rows are
graded from 1 to 1e-12, and a power-of-two scale 2^s with |s| <= 40. On
those, every pipeline gives orthonormal factors, one model per seed, a
model that the container stores bit for bit, and a model that scales with
the input; THOSVD, STHOSVD and R-STHOSVD stay within 100% relative error,
and THOSVD and STHOSVD within the deterministic bound of their tails.
Sketch- and sub-Sketch-STHOSVD are not held to 100%: their core is the
product of the two-sided corrections X_c, not a projection. On 300 such
inputs drawn from ``default_rng(7)``, a third of them graded, Sketch
exceeded 100% on 72 (worst 3.78) and sub-Sketch on 61 (worst 2.29). A
projection core would close that (ROADMAP.md, item 1).
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
from tucksketch.metrics import relative_error, spectrum_summary, tail_energy
from tucksketch.tensor import frobenius_norm


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


def _draw_plan(draw):
    """(dims, ranks, order): order 2-4, dims 3-12, ranks under the rank rule, a processing order."""
    ndim = draw(st.integers(2, 4))
    dims = tuple(draw(st.integers(3, 12)) for _ in range(ndim))
    ranks = _rank_rule([draw(st.integers(1, d)) for d in dims])
    order = tuple(draw(st.permutations(range(1, ndim + 1))))
    return dims, ranks, order


@st.composite
def non_finite_cases(draw):
    dims, ranks, order = _draw_plan(draw)
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


def _finite_case(dims, ranks, order, fortran, graded, seed=0):
    """(x, cfg): a Gaussian tensor of dims in the chosen layout, its mode-1 rows graded from 1 to 1e-12 if graded."""
    x = np.random.default_rng(seed).standard_normal(dims)
    if graded:
        x *= np.logspace(0, -12, dims[0]).reshape((-1,) + (1,) * (len(dims) - 1))
    x = np.asfortranarray(x) if fortran else np.ascontiguousarray(x)
    return x, ApproxConfig(target_ranks=ranks, processing_order=order)


@st.composite
def finite_cases(draw):
    dims, ranks, order = _draw_plan(draw)
    return _finite_case(dims, ranks, order, draw(st.booleans()), draw(st.booleans()),
                        draw(st.integers(0, 2**32 - 1)))


def _same_model(a, b):
    return all(np.array_equal(p, q) for p, q in zip((a.core, *a.factors), (b.core, *b.factors)))


# the same plans as the examples above, finite and graded
@example(case=_finite_case((5, 3), (3, 3), (1, 2), True, True), s=-40)
@example(case=_finite_case((3, 5), (3, 3), (2, 1), False, True), s=40)
@example(case=_finite_case((4, 4, 4), (4, 3, 4), None, True, False), s=7)
@given(case=finite_cases(), s=st.integers(-40, 40))
def test_every_pipeline_keeps_its_promises_on_finite_input(case, s, tmp_path_factory):
    x, cfg = case
    path = tmp_path_factory.mktemp("model") / "m.tuck"
    norm_sq = frobenius_norm(x) ** 2
    tails = sum(tail_energy(sigma, r + 1) for sigma, r in zip(spectrum_summary(x), cfg.target_ranks))
    for key, (name, function) in ALGORITHMS.items():
        pipeline = getattr(tucker, function)
        model = pipeline(x, cfg)
        for u in model.factors:
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-12, name
        assert _same_model(pipeline(x, cfg), model), name
        tucker.save_model(model, path)
        assert _same_model(tucker.load_model(path), model), name
        scaled = pipeline(np.ldexp(x, s), cfg)
        core = np.ldexp(model.core, s)
        assert np.abs(scaled.core - core).max() <= 1e-12 * np.abs(core).max(), name
        for u, v in zip(scaled.factors, model.factors):
            assert np.abs(u - v).max() <= 1e-12, name
        xhat = tucker.reconstruct(model)
        if key in ("thosvd", "sthosvd", "rsthosvd"):
            assert relative_error(x, xhat) <= 1 + 1e-12, name
        if key in ("thosvd", "sthosvd"):
            assert frobenius_norm(x - xhat) ** 2 <= tails + 1e-12 * norm_sq, name

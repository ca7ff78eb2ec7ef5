import itertools
import struct
import warnings

import numpy as np
import pytest

from tucksketch import tucker
from tucksketch.config import ApproxConfig
from tucksketch.datagen import hilbert_tensor
from tucksketch.linalg import rsvd, sketch, sub_sketch, truncated_svd
from tucksketch.metrics import bound_oracle, relative_error, tail_energy
from tucksketch.rng import RngStream
from tucksketch.tensor import frobenius_norm, fold, mode_n_product, unfold
from tucksketch.tucker import (
    TuckerModel,
    _canonical_signs,
    load_model,
    r_sthosvd,
    reconstruct,
    save_model,
    sketch_sthosvd,
    sthosvd,
    sub_sketch_sthosvd,
    thosvd,
)

PIPELINES = {
    "thosvd": lambda x, cfg, rng: thosvd(x, cfg),
    "sthosvd": lambda x, cfg, rng: sthosvd(x, cfg),
    "r_sthosvd": r_sthosvd,
    "sketch_sthosvd": sketch_sthosvd,
    "sub_sketch_sthosvd": sub_sketch_sthosvd,
}


def random_tucker_tensor(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(ranks)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)]
    return reconstruct(TuckerModel(core, factors))


def spectrum_tensor(n, terms, weights, seed):
    """Cubic tensor whose every mode unfolding has exactly the given spectrum."""
    rng = np.random.default_rng(seed)
    bases = [np.linalg.qr(rng.standard_normal((n, terms)))[0] for _ in range(3)]
    return np.einsum(
        "ti,tj,tk->ijk", (bases[0] * weights).T, bases[1].T, bases[2].T, optimize=True
    )


@pytest.mark.parametrize("name", list(PIPELINES))
def test_exact_rank_recovery(name):
    x = random_tucker_tensor((20, 20, 20), (2, 2, 2), seed=0)
    cfg = ApproxConfig(target_ranks=(2, 2, 2), sketch_sizes=(4, 4, 4), oversample=2)
    model = PIPELINES[name](x, cfg, RngStream(1))
    assert relative_error(x, reconstruct(model)) <= 1e-10
    assert model.ranks == (2, 2, 2)
    assert model.dims == (20, 20, 20)


def test_thosvd_rank_one_outer_product():
    u = np.linspace(1, 2, 6)
    v = np.linspace(-1, 1, 5)
    w = np.linspace(0.5, 1.5, 4)
    x = np.einsum("i,j,k->ijk", u, v, w)
    model = thosvd(x, ApproxConfig(target_ranks=(1, 1, 1)))
    assert relative_error(x, reconstruct(model)) <= 1e-12


@pytest.mark.parametrize("name", ["thosvd", "sthosvd"])
def test_full_rank_is_lossless(name):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 6, 7))
    model = PIPELINES[name](x, ApproxConfig(target_ranks=(5, 6, 7)), None)
    assert relative_error(x, reconstruct(model)) <= 1e-12


@pytest.mark.parametrize("name", ["thosvd", "sthosvd"])
def test_deterministic_error_bound(name):
    # squared error never exceeds the sum of mode tail energies
    tensors = [
        hilbert_tensor((30, 30, 30)),
        np.random.default_rng(3).standard_normal((15, 16, 17)),
    ]
    for x in tensors:
        for r in (2, 5, 9):
            ranks = tuple(min(r, d) for d in x.shape)
            cfg = ApproxConfig(target_ranks=ranks)
            model = PIPELINES[name](x, cfg, None)
            err_sq = frobenius_norm(x - reconstruct(model)) ** 2
            bound = bound_oracle(x, cfg, name).total
            assert err_sq <= bound + 1e-10 * frobenius_norm(x) ** 2


def test_sthosvd_core_energy_identity():
    # ||X||^2 splits into the core energy plus the per-mode discarded tails
    # of the intermediate unfoldings; replayed with the public primitives
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 12, 14))
    ranks = (3, 4, 5)
    core = x
    discarded = 0.0
    for n in (1, 2, 3):
        m = unfold(core, n)
        sigma = np.linalg.svd(m, compute_uv=False)
        discarded += tail_energy(sigma, ranks[n - 1] + 1)
        _, c = truncated_svd(m, ranks[n - 1])
        dims = core.shape[: n - 1] + (ranks[n - 1],) + core.shape[n:]
        core = fold(c, n, dims)
    model = sthosvd(x, ApproxConfig(target_ranks=ranks))
    total = frobenius_norm(x) ** 2
    assert frobenius_norm(model.core) ** 2 == pytest.approx(
        frobenius_norm(core) ** 2, rel=1e-10
    )
    assert total == pytest.approx(
        frobenius_norm(model.core) ** 2 + discarded, rel=1e-10
    )


@pytest.mark.parametrize("name", ["thosvd", "sthosvd"])
def test_error_monotone_in_rank(name):
    x = hilbert_tensor((15, 15, 15))
    errors = []
    for r in (2, 4, 6, 8):
        model = PIPELINES[name](x, ApproxConfig(target_ranks=(r, r, r)), None)
        errors.append(relative_error(x, reconstruct(model)))
    for hi, lo in zip(errors, errors[1:]):
        assert lo <= hi + 1e-12


def test_power_iteration_monotone_medians():
    # slow (harmonic) spectrum decay: more power iterations never hurt the
    # median error over paired seeds; a generous sketch size keeps the
    # randomness of the correction solve from drowning the basis improvement
    weights = np.arange(1, 41) ** -1.0
    x = spectrum_tensor(40, 40, weights, seed=5)
    medians = []
    for q in (1, 2, 3):
        cfg = ApproxConfig(target_ranks=(5, 5, 5), sketch_sizes=(20, 20, 20), power_iters=q)
        errs = [
            frobenius_norm(x - reconstruct(sub_sketch_sthosvd(x, cfg, RngStream(seed))))
            for seed in range(50)
        ]
        medians.append(np.median(errs))
    assert medians[0] >= medians[1] >= medians[2]


@pytest.mark.parametrize("name", ["r_sthosvd", "sketch_sthosvd", "sub_sketch_sthosvd"])
def test_randomized_pipelines_bit_deterministic(name):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 13, 14))
    cfg = ApproxConfig(target_ranks=(4, 4, 4))
    a = PIPELINES[name](x, cfg, RngStream(99))
    b = PIPELINES[name](x, cfg, RngStream(99))
    assert np.array_equal(a.core, b.core)
    for ua, ub in zip(a.factors, b.factors):
        assert np.array_equal(ua, ub)


def assert_same_model(a: TuckerModel, b: TuckerModel) -> None:
    assert np.array_equal(a.core, b.core)
    assert len(a.factors) == len(b.factors)
    for ua, ub in zip(a.factors, b.factors):
        assert np.array_equal(ua, ub)


def test_seed_comes_from_config_when_rng_omitted():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 10, 10))
    cfg = ApproxConfig(target_ranks=(3, 3, 3), seed=41)
    for name in ("r_sthosvd", "sketch_sthosvd", "sub_sketch_sthosvd"):
        assert_same_model(PIPELINES[name](x, cfg, None), PIPELINES[name](x, cfg, RngStream(41)))


def reference_sequential(x, cfg, kernel, rng):
    """A plain ST-HOSVD loop over the public kernels, driven by the config's plan.

    kernel is "rsvd", "sketch" or "sub_sketch". Each mode runs the kernel
    with the p or l_n that ``cfg.plan`` gives it ("sub_sketch" with
    cfg.power_iters), or the truncated SVD where a sketch kernel finds no
    l_n in the plan.
    Every column of U_n whose largest-magnitude entry is negative is negated,
    and so is the matching row of the core unfolding.
    """
    core = x
    factors = [None] * x.ndim
    for step in cfg.plan(x.shape):
        n, r = step.mode, step.rank
        m = unfold(core, n)
        if kernel == "rsvd":
            u, c = rsvd(m, r, step.p, rng)
        elif step.l is None:
            u, c = truncated_svd(m, r)
        elif kernel == "sketch":
            u, c = sketch(m, r, step.l, rng)
        else:
            u, c = sub_sketch(m, r, step.l, cfg.power_iters, rng)
        flip = u[np.argmax(np.abs(u), axis=0), np.arange(r)] < 0
        u, c = u.copy(), c.copy()
        u[:, flip] = -u[:, flip]
        c[flip] = -c[flip]
        factors[n - 1] = u
        shape = list(core.shape)
        shape[n - 1] = r
        core = fold(c, n, tuple(shape))
    return TuckerModel(core, factors)


@pytest.mark.parametrize(
    "name, kernel",
    [("r_sthosvd", "rsvd"), ("sketch_sthosvd", "sketch"), ("sub_sketch_sthosvd", "sub_sketch")],
)
def test_pipelines_match_reference_loop(name, kernel):
    # Mode 2 goes first and mode 3, full rank, goes last. At r = (5, 5, 6)
    # mode 2's l = 11 clamps to 10, and mode 3's 6 x 25 unfolding gives
    # R-STHOSVD p = 0 and the sketches the SVD fallback. At r = (3, 2, 5)
    # mode 3's 6 x 6 unfolding gives R-STHOSVD p = 1 and the sketches the
    # SVD fallback, since I_3 = 6 < r_3 + 2.
    x = np.random.default_rng(16).standard_normal((12, 10, 6))
    for ranks in ((5, 5, 6), (3, 2, 5)):
        cfg = ApproxConfig(target_ranks=ranks, processing_order=(2, 1, 3), power_iters=2)
        got = PIPELINES[name](x, cfg, RngStream(17))
        assert_same_model(got, reference_sequential(x, cfg, kernel, RngStream(17)))


def _alternating_signs(r):
    return np.where(np.arange(r) % 2 == 1, -1.0, 1.0)


def _flip_every_other(kernel):
    """kernel with every other column of U, and the matching row of C, negated."""

    def flipped(*args):
        u, c = kernel(*args)
        signs = _alternating_signs(u.shape[1])
        return u * signs, c * signs[:, None]

    return flipped


def _negate_every_other(left_factor):
    """left_factor with every other column of its U negated."""

    def negated(*args):
        u = left_factor(*args)
        return u * _alternating_signs(u.shape[1])

    return negated


@pytest.mark.parametrize("name", ["thosvd", "sthosvd", "r_sthosvd", "sketch_sthosvd", "sub_sketch_sthosvd"])
def test_sequential_factor_signs_do_not_depend_on_the_kernel(name, tmp_path, monkeypatch):
    # Mode 3 is full rank, so every randomized pipeline also takes its
    # truncated-SVD fallback; the saved model must not see the flipped signs.
    # THOSVD's factors come from _left_factor, which leaves signs to the loop.
    x = np.random.default_rng(18).standard_normal((12, 10, 4))
    cfg = ApproxConfig(target_ranks=(4, 3, 4), power_iters=1)
    save_model(PIPELINES[name](x, cfg, RngStream(5)), tmp_path / "plain.tuck")
    for kernel in ("truncated_svd", "rsvd", "sketch", "sub_sketch"):
        monkeypatch.setattr(tucker, kernel, _flip_every_other(getattr(tucker, kernel)))
    monkeypatch.setattr(tucker, "_left_factor", _negate_every_other(tucker._left_factor))
    save_model(PIPELINES[name](x, cfg, RngStream(5)), tmp_path / "flipped.tuck")
    assert (tmp_path / "flipped.tuck").read_bytes() == (tmp_path / "plain.tuck").read_bytes()


def test_canonical_signs_negate_rows_of_c_in_place():
    rng = np.random.default_rng(8)
    u = np.linalg.qr(rng.standard_normal((6, 4)))[0]
    c = rng.standard_normal((4, 9))
    product = u @ c
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(4)]
    assert (peaks < 0).any() and (peaks > 0).any()
    expected = c * np.where(peaks < 0, -1.0, 1.0)[:, None]
    u_out, c_out = _canonical_signs(u, c)
    # c is the caller's array, with only the flipped rows negated
    assert c_out is c and np.shares_memory(c_out, c)
    assert np.array_equal(c_out, expected)
    assert np.allclose(u_out @ c_out, product)
    # nothing to flip: c comes back as it is
    fixed = c.copy()
    assert _canonical_signs(u_out, fixed)[1] is fixed
    assert np.array_equal(fixed, c)
    # any layout: an F-ordered c with 8 rows has rows of a 64-byte stride,
    # through which an in-place np.negative has written wrong values
    for order, rows, cols in [*itertools.product("CF", (4, 8, 9), (12,)), ("F", 8, 64)]:
        u = rng.standard_normal((rows + 2, rows))
        u[0] = np.where(np.arange(rows) % 2 == 0, -10.0, 10.0)
        c = np.asarray(rng.standard_normal((rows, cols)), order=order)
        expected = c * np.where(np.arange(rows) % 2 == 0, -1.0, 1.0)[:, None]
        assert np.array_equal(_canonical_signs(u, c)[1], expected), (order, rows, cols)


@pytest.mark.parametrize("layout", ["F", "C"])
def test_thosvd_factors_do_not_depend_on_the_processing_order(layout):
    # each factor comes from the original tensor's unfolding, whatever the
    # order; only the core is projected in processing order, which moves it
    # by rounding
    x = np.asarray(hilbert_tensor((20, 22, 24)), order=layout)
    ranks = (3, 4, 5)
    natural = thosvd(x, ApproxConfig(target_ranks=ranks))
    for order in itertools.permutations((1, 2, 3)):
        model = thosvd(x, ApproxConfig(target_ranks=ranks, processing_order=order))
        for u, u_natural in zip(model.factors, natural.factors):
            assert np.array_equal(u, u_natural), order
        scale = np.max(np.abs(natural.core))
        assert np.max(np.abs(model.core - natural.core)) <= 1e-13 * scale, order


def test_left_plan_gives_every_mode_the_left_step(monkeypatch):
    # THOSVD runs its step on every mode of the plan, in processing order,
    # with no fallback, also where the plan has no l_n for a sketch
    cases = [
        ((3, 5, 10), (3, 1, 2), (20, 8, 10)),
        ((50, 50, 3), None, (256, 256, 3)),
        ((3, 3), (2, 1), (4, 5)),
    ]
    calls = []
    real_left_factor = tucker._left_factor

    def left_factor(x, r, n):
        calls.append((n, r))
        return real_left_factor(x, r, n)

    monkeypatch.setattr(tucker, "_left_factor", left_factor)
    rng = np.random.default_rng(3)
    for ranks, order, shape in cases:
        cfg = ApproxConfig(target_ranks=ranks, processing_order=order)
        modes = order or range(1, len(shape) + 1)
        steps = cfg.plan(shape)
        assert [(step.mode, step.rank) for step in steps] == [(n, ranks[n - 1]) for n in modes]
        # every mode carries its p, and its l_n unless I_n < r_n + 2
        for step in steps:
            assert 0 <= step.p <= cfg.oversample
            assert (step.l is None) == (shape[step.mode - 1] < step.rank + 2)
        calls.clear()
        thosvd(rng.standard_normal(shape), cfg)
        assert calls == [(n, ranks[n - 1]) for n in modes]


@pytest.mark.parametrize("name", list(PIPELINES))
def test_factor_columns_have_positive_peaks(name):
    noise = 1e-2 * np.random.default_rng(19).standard_normal((12, 10, 8))
    x = random_tucker_tensor((12, 10, 8), (3, 3, 3), seed=19) + noise
    model = PIPELINES[name](x, ApproxConfig(target_ranks=(3, 3, 3)), RngStream(6))
    for u in model.factors:
        peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert np.all(peaks > 0)


@pytest.mark.parametrize("name", list(PIPELINES))
def test_factor_orthonormality(name):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((11, 12, 13))
    model = PIPELINES[name](x, ApproxConfig(target_ranks=(4, 5, 6)), RngStream(3))
    for u, r in zip(model.factors, (4, 5, 6)):
        assert np.linalg.norm(u.T @ u - np.eye(r)) <= 1e-12 * np.sqrt(r)


def test_reconstruct_scalar_core():
    core = np.full((1, 1, 1), 2.5)
    factors = [np.eye(4)[:, :1], np.eye(3)[:, :1], np.eye(5)[:, :1]]
    x = reconstruct(TuckerModel(core, factors))
    assert x[0, 0, 0] == 2.5
    assert np.count_nonzero(x) == 1


def test_reconstruct_matches_kronecker_route():
    rng = np.random.default_rng(9)
    core = rng.standard_normal((2, 3, 2))
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in [(4, 2), (5, 3), (6, 2)]]
    model = TuckerModel(core, factors)
    x = reconstruct(model)
    for n in (1, 2, 3):
        others = [factors[i] for i in reversed(range(3)) if i != n - 1]
        chain = others[0]
        for u in others[1:]:
            chain = np.kron(chain, u)
        via_kron = factors[n - 1] @ unfold(core, n) @ chain.T
        dims = x.shape
        assert np.allclose(
            fold(via_kron, n, dims), x, atol=1e-10 * frobenius_norm(x)
        )


def _natural_order_reconstruct(model):
    x = model.core
    for n, u in enumerate(model.factors, start=1):
        x = mode_n_product(x, u, n)
    return x


@pytest.mark.parametrize(
    "dims, ranks",
    [((20, 20, 20), (4, 4, 4)), ((64, 48, 3), (8, 6, 3)), ((10, 40, 40), (10, 4, 4))],
    ids=["equal-ratios", "colour-mode-first", "full-rank-first"],
)
def test_reconstruct_order_matches_the_natural_loop(dims, ranks):
    rng = np.random.default_rng(21)
    core = rng.standard_normal(ranks)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)]
    model = TuckerModel(core, factors)
    x, expected = reconstruct(model), _natural_order_reconstruct(model)
    assert x.shape == dims and x.flags.f_contiguous
    if len(set(d / r for d, r in zip(dims, ranks))) == 1:
        # equal ratios keep the natural order, so the same bits
        assert np.array_equal(x, expected)
    else:
        assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)


def test_processing_order_invariance_supersymmetric():
    # supersymmetric input: every processing order yields the same error
    x = hilbert_tensor((8, 8, 8, 8, 8))
    cfg_ranks = (3, 3, 3, 3, 3)
    errors = []
    for order in itertools.permutations(range(1, 6)):
        cfg = ApproxConfig(target_ranks=cfg_ranks, processing_order=order)
        errors.append(relative_error(x, reconstruct(sthosvd(x, cfg))))
    spread = (max(errors) - min(errors)) / max(errors)
    assert spread <= 1e-10


def test_degenerate_full_rank_modes():
    # rank equal to the dimension: the factor is a full basis and the sketch
    # pipelines fall back to a deterministic truncation for that mode
    x = random_tucker_tensor((12, 10, 6), (3, 3, 3), seed=10)
    cfg = ApproxConfig(target_ranks=(12, 3, 6), sketch_sizes=(14, 5, 8))
    for name in ("sketch_sthosvd", "sub_sketch_sthosvd", "r_sthosvd"):
        model = PIPELINES[name](x, cfg, RngStream(11))
        assert relative_error(x, reconstruct(model)) <= 1e-10
        assert model.factors[0].shape == (12, 12)
        assert model.factors[2].shape == (6, 6)


def test_rank_out_of_range():
    x = np.zeros((4, 4, 4)) + 1.0
    with pytest.raises(ValueError):
        thosvd(x, ApproxConfig(target_ranks=(5, 3, 3)))
    with pytest.raises(ValueError):
        sthosvd(x, ApproxConfig(target_ranks=(2, 2)))


@pytest.mark.parametrize(
    "ranks, message",
    [
        ((2, 2, 6), "target rank 6 of mode 3 exceeds 4,"),
        ((1, 1, 5), "target rank 5 of mode 3 exceeds 1,"),
        ((9, 2, 2), "target rank 9 of mode 1 exceeds 4,"),
        ((3,), "target rank 3 of mode 1 exceeds 1,"),
    ],
    ids=["2x2x6", "1x1x5", "9x2x2", "order-1"],
)
def test_ranks_above_the_product_of_the_others_rejected(ranks, message):
    # the mode-n unfolding of a Tucker model is U_n G_(n) (kron U_m)^T, so
    # r_n <= prod_{m != n} r_m for every tensor (an order-1 tensor has rank 1)
    with pytest.raises(ValueError, match=message):
        ApproxConfig(target_ranks=ranks)


def test_sketch_sizes_of_the_wrong_length_rejected():
    with pytest.raises(ValueError, match="sketch_sizes must match target_ranks in length"):
        ApproxConfig(target_ranks=(2, 2, 2), sketch_sizes=(5, 5))


@pytest.mark.parametrize("ranks", [(2, 2, 4), (1, 1, 1), (50, 50, 3), (1,), (4, 4)])
def test_ranks_within_the_product_of_the_others_accepted(ranks):
    assert ApproxConfig(target_ranks=ranks).target_ranks == ranks


def test_invalid_processing_order():
    with pytest.raises(ValueError):
        ApproxConfig(target_ranks=(2, 2, 2), processing_order=(1, 1, 2))
    # the order is a permutation of the ranks' modes, checked where it is set
    for order in ((2, 1), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
            ApproxConfig(target_ranks=(2, 2, 2), processing_order=order)
    x = np.ones((4, 4, 4))
    cfg = ApproxConfig(target_ranks=(2, 2), processing_order=(2, 1))
    with pytest.raises(ValueError):
        sthosvd(x, cfg)


def test_sketch_size_validation():
    # Thm 4.3 of Tropp et al. (SIMAX 2017) needs l > k + 1 with k = r: a size
    # below r + 2 is rejected where it is set, not warned about where it runs
    for sizes in ((3, 5), (4, 5)):
        with pytest.raises(ValueError, match=r"at least target rank 3 \+ 2"):
            ApproxConfig(target_ranks=(3, 3), sketch_sizes=sizes)
    ApproxConfig(target_ranks=(3, 3), sketch_sizes=(5, 5))
    # a mode with I_n = r_n + 1, where the clamp would give l = r + 1, is
    # truncated deterministically, as STHOSVD truncates it, and nothing warns
    x = np.random.default_rng(16).standard_normal((4, 9))
    cfg = ApproxConfig(target_ranks=(3, 3))
    reference = sthosvd(x, cfg).factors[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("sketch_sthosvd", "sub_sketch_sthosvd"):
            model = PIPELINES[name](x, cfg, RngStream(0))
            assert np.array_equal(model.factors[0], reference)


@pytest.mark.parametrize(
    "field, value",
    [
        ("target_ranks", (2.7, 2, 2)),
        ("sketch_sizes", (5.9, 5, 5)),
        ("processing_order", (1.2, 2, 3)),
        ("seed", 1.5),
        ("oversample", 2.5),
        ("power_iters", 1.5),
    ],
)
def test_config_fields_take_only_integers(field, value):
    # int() would truncate each of these to a valid config that runs
    with pytest.raises(ValueError, match=f"^{field} takes integers only"):
        ApproxConfig(**{"target_ranks": (2, 2, 2), field: value})


def test_config_fields_take_numpy_integers_as_ints():
    cfg = ApproxConfig(
        target_ranks=np.array([2, 2, 2]),
        processing_order=(np.int64(3), 1, 2),
        sketch_sizes=np.array([5, 5, 5], dtype=np.int32),
        oversample=np.int64(2),
        power_iters=np.uint8(2),
        seed=np.int64(7),
    )
    assert cfg == ApproxConfig((2, 2, 2), (3, 1, 2), 2, (5, 5, 5), 2, 7)
    for value in (*cfg.target_ranks, *cfg.processing_order, *cfg.sketch_sizes):
        assert type(value) is int
    assert type(cfg.oversample) is type(cfg.power_iters) is type(cfg.seed) is int


def plan_sizes(cfg, shape, kernel):
    """Each mode's size for kernel, in mode order: p ("rsvd"), clamped l_n or None ("sketch"), None ("svd")."""
    steps = sorted(cfg.plan(shape), key=lambda step: step.mode)
    return tuple({"rsvd": step.p, "sketch": step.l, "svd": None}[kernel] for step in steps)


def test_default_sketch_sizes_and_plan():
    cases = [
        # l_n clamps to I_n; a full-rank mode is truncated deterministically
        ((3, 5, 10), None, (20, 8, 10), "sketch", (7, 8, None)),
        # p clamps to min(rows, cols) - r_n, down to 0 at r_n = I_n
        ((3, 5, 10), None, (20, 8, 10), "rsvd", (5, 3, 0)),
        # a sketch step needs l_n >= r_n + 2: I_n = r_n + 1 falls back to
        # the SVD, I_n = r_n + 2 sketches with l_n clamped to I_n
        ((3, 3), None, (4, 5), "sketch", (None, 5)),
        ((3, 3), (2, 1), (4, 5), "sketch", (None, 5)),
        # image-256: R-STHOSVD samples the full-rank colour mode with p = 0,
        # the sketches truncate it deterministically
        ((50, 50, 3), None, (256, 256, 3), "rsvd", (5, 5, 0)),
        ((50, 50, 3), None, (256, 256, 3), "sketch", (101, 101, None)),
        ((50, 50, 3), None, (256, 256, 3), "svd", (None, None, None)),
    ]
    for ranks, order, shape, kernel, sizes in cases:
        cfg = ApproxConfig(target_ranks=ranks, processing_order=order)
        steps = cfg.plan(shape)
        assert [step.mode for step in steps] == list(order or range(1, len(shape) + 1))
        assert all(step.rank == ranks[step.mode - 1] for step in steps)
        # every mode carries its p, and its l_n unless I_n < r_n + 2; the
        # default sketch size is l_n = 2 r_n + 1, clamped to I_n, and never
        # below r_n + 2
        for step in steps:
            rows = shape[step.mode - 1]
            assert 0 <= step.p <= cfg.oversample
            assert (step.l is None) == (rows < step.rank + 2)
            if step.l is not None:
                assert step.l == min(2 * step.rank + 1, rows)
                assert step.l >= step.rank + 2
        assert plan_sizes(cfg, shape, kernel) == sizes, (ranks, order, shape, kernel)
    # no tensor has ranks (1, 1, 5), so no plan needs a fallback for the
    # 1-column unfolding its last mode would see
    with pytest.raises(ValueError, match="target rank 5 of mode 3 exceeds 1"):
        ApproxConfig(target_ranks=(1, 1, 5))


@pytest.mark.parametrize("name", ["sketch_sthosvd", "sub_sketch_sthosvd"])
def test_default_sketch_sizes_run_clamped(name):
    # default l = (9, 13, 7) runs as (9, 10, 6): the same draws and model as
    # the clamped sizes given explicitly
    x = random_tucker_tensor((12, 10, 6), (4, 6, 3), seed=14)
    default = PIPELINES[name](x, ApproxConfig(target_ranks=(4, 6, 3)), RngStream(15))
    explicit = PIPELINES[name](
        x, ApproxConfig(target_ranks=(4, 6, 3), sketch_sizes=(9, 10, 6)), RngStream(15)
    )
    assert np.array_equal(default.core, explicit.core)
    for a, b in zip(default.factors, explicit.factors):
        assert np.array_equal(a, b)


def _assert_scale_invariant(name, scale):
    """The pipeline on x * scale, without a warning, is its model of x scaled."""
    x = random_tucker_tensor((6, 7, 8), (2, 2, 2), seed=16)
    x += 1e-3 * np.sqrt(np.mean(x**2)) * np.random.default_rng(17).standard_normal(x.shape)
    cfg = ApproxConfig(target_ranks=(2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = PIPELINES[name](x * scale, cfg, RngStream(17))
    for u in model.factors:
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)
    approx = reconstruct(model) / scale
    assert np.isfinite(approx).all()
    unscaled = reconstruct(PIPELINES[name](x, cfg, RngStream(17)))
    assert relative_error(x, approx) == pytest.approx(relative_error(x, unscaled), rel=1e-10)


@pytest.mark.parametrize("scale", [1e160, 1e200])
@pytest.mark.parametrize("name", list(PIPELINES))
def test_huge_finite_entries_overflow_no_gram_matrix(name, scale):
    # A A^T of every unfolding overflows to inf; the factor steps must take
    # their QR routes instead of reading eigenpairs of an inf matrix
    _assert_scale_invariant(name, scale)


@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200, 1e-250, 1e-300])
@pytest.mark.parametrize("name", list(PIPELINES))
def test_tiny_finite_entries_take_no_subnormal_gram_matrix(name, scale):
    # A A^T of every unfolding is subnormal, or nearly so; the factor steps
    # must take their QR routes instead of eigenpairs that lost their digits
    _assert_scale_invariant(name, scale)


@pytest.mark.parametrize("shape", [(6, 7, 8), (5, 5, 5), (9, 4, 6)])
@pytest.mark.parametrize("name", ["r_sthosvd", "sketch_sthosvd", "sub_sketch_sthosvd"])
def test_short_mode_models_do_not_move_with_scale(name, shape):
    # Omega is Gaussian on these short unfoldings, where a sign Omega is
    # often rank-deficient and rounding fills its missing directions, and
    # the power step's basis is the same on its Gram and QR routes; so no
    # seed's model moves when the input is scaled by 1e200 or 1e-200
    x = np.random.default_rng(19).standard_normal(shape)
    cfg = ApproxConfig(target_ranks=(2, 2, 2))
    for seed in range(200):
        errors = [
            relative_error(x * scale, reconstruct(PIPELINES[name](x * scale, cfg, RngStream(seed))))
            for scale in (1.0, 1e200, 1e-200)
        ]
        assert errors[1:] == pytest.approx([errors[0]] * 2, rel=1e-10, abs=0), seed


def test_r_sthosvd_with_clamped_oversampling_matches_sthosvd():
    # ranks (2, 2, 2) on 6 x 7 x 8 clamp every mode to k = min(rows, cols),
    # so the range finder sees the whole range and R-STHOSVD is STHOSVD
    x = np.random.default_rng(18).standard_normal((6, 7, 8))
    cfg = ApproxConfig(target_ranks=(2, 2, 2))
    expected = relative_error(x, reconstruct(sthosvd(x, cfg)))
    for seed in range(20):
        err = relative_error(x, reconstruct(r_sthosvd(x, cfg, RngStream(seed))))
        assert err == pytest.approx(expected, rel=1e-10), seed


def test_non_finite_input_rejected():
    x = np.ones((3, 3, 3))
    x[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        sthosvd(x, ApproxConfig(target_ranks=(2, 2, 2)))


# ------------------------------------------------------------ serialization


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 8, 9))
    model = sthosvd(x, ApproxConfig(target_ranks=(3, 4, 5)))
    path = tmp_path / "model.tuck"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.core, model.core)
    for a, b in zip(loaded.factors, model.factors):
        assert np.array_equal(a, b)


def test_model_container_layout(tmp_path):
    # parse the container manually as a byte-layout oracle
    rng = np.random.default_rng(13)
    core = rng.standard_normal((2, 3))
    factors = [np.linalg.qr(rng.standard_normal((4, 2)))[0],
               np.linalg.qr(rng.standard_normal((5, 3)))[0]]
    model = TuckerModel(core, factors)
    path = tmp_path / "m.tuck"
    save_model(model, path)
    blob = path.read_bytes()
    assert blob[:4] == b"TUCK"
    version, ndim = struct.unpack_from("<II", blob, 4)
    assert (version, ndim) == (1, 2)
    dims = struct.unpack_from("<2Q", blob, 12)
    ranks = struct.unpack_from("<2Q", blob, 28)
    assert dims == (4, 5)
    assert ranks == (2, 3)
    offset = 44
    core_flat = np.frombuffer(blob, dtype="<f8", count=6, offset=offset)
    assert np.array_equal(core_flat, core.ravel(order="F"))
    offset += 48
    u0 = np.frombuffer(blob, dtype="<f8", count=8, offset=offset)
    assert np.array_equal(u0, factors[0].ravel(order="F"))
    assert len(blob) == offset + 8 * (8 + 15)


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tuck"
    # bad magic, then containers cut inside the 12-byte header
    for blob in (b"NOPE" + b"\x00" * 32, b"TUCK", b"TUCK\x01\x00"):
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            load_model(path)


def _container(ndim, dims, ranks, values, version=1):
    head = b"TUCK" + struct.pack("<II", version, ndim)
    sizes = struct.pack(f"<{len(dims) + len(ranks)}Q", *dims, *ranks)
    return head + sizes + np.asarray(values, "<f8").tobytes()


@pytest.mark.parametrize(
    "blob, message",
    [
        (_container(0, (), (), []), "order 0"),
        (_container(2, (0, 3), (1, 1), [1.0, 1.0]), "zero dimension or rank"),
        (_container(2, (2, 3), (0, 1), [1.0, 1.0, 1.0]), "zero dimension or rank"),
        (_container(2, (2, 3), (3, 1), [1.0] * 12), "rank above its dimension"),
        (_container(2, (1, 1), (1, 1), [np.nan, 1.0, 1.0]), "non-finite"),
        (_container(2, (1, 1), (1, 1), [1.0, np.inf, 1.0]), "non-finite"),
        (_container(1, (2**63,), (2**63,), [1.0]), "does not match"),
        (_container(2, (2, 3), (1, 1), [1.0] * 5), "does not match"),
        (_container(2, (2, 3), (1, 1), [1.0] * 7), "does not match"),
        (_container(3, (2, 3), (1, 1), []), "truncated"),
        (_container(2, (1, 1), (1, 1), [1.0] * 3, version=2), "unsupported container version 2"),
    ],
    ids=[
        "order-0", "zero-dim", "zero-rank", "rank-above-dim", "nan", "inf", "rank-2^63", "short",
        "long", "header", "version-2",
    ],
)
def test_model_load_rejects_impossible_containers(tmp_path, blob, message):
    path = tmp_path / "bad.tuck"
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            load_model(path)

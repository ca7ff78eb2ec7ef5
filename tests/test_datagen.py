import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from tucksketch import datagen
from tucksketch.datagen import (
    SparseGenConfig,
    add_awgn,
    add_scaled_noise,
    gaussian_tensor,
    hilbert_tensor,
    sparse_factor_vectors,
    sparse_lowrank_tensor,
    term_weights,
)
from tucksketch.rng import RngStream
from tucksketch.tensor import frobenius_norm, unfold


# ------------------------------------------------------------------ hilbert


def test_hilbert_entries():
    x = hilbert_tensor((4, 4, 4))
    assert x[0, 0, 0] == pytest.approx(1.0 / 3.0)
    assert x[3, 2, 1] == pytest.approx(1.0 / 9.0)
    x5 = hilbert_tensor((25,) * 5)
    assert x5[24, 24, 24, 24, 24] == pytest.approx(1.0 / 125.0)
    assert x5[0, 0, 0, 0, 0] == pytest.approx(1.0 / 5.0)


def test_hilbert_first_order():
    x = hilbert_tensor((6,))
    assert np.allclose(x, 1.0 / np.arange(1, 7))


def test_hilbert_permutation_symmetry_exact():
    x = hilbert_tensor((4, 4, 4))
    for perm in itertools.permutations((0, 1, 2)):
        assert np.array_equal(np.transpose(x, perm), x)


def test_hilbert_rejects_bad_dims():
    with pytest.raises(ValueError):
        hilbert_tensor((0, 3))
    with pytest.raises(ValueError):
        hilbert_tensor(())


# ------------------------------------------------------------------- sparse


def test_term_weights_gap():
    cfg = SparseGenConfig(n=10, gamma=7.0)
    w = term_weights(cfg)
    assert w[0] == pytest.approx(7.0)
    assert w[9] == pytest.approx(7.0 / 100.0)
    assert w[10] == pytest.approx(1.0 / 121.0)
    assert w.shape == (200,)
    # gamma = 1 collapses the two groups into one inverse-square series
    w1 = term_weights(SparseGenConfig(n=10, gamma=1.0))
    assert float(np.sum(w1)) == pytest.approx(sum(1.0 / i**2 for i in range(1, 201)))


def test_sparse_vectors_structure():
    cfg = SparseGenConfig(n=100, gamma=2.0, density=0.05)
    xs, ys, zs = sparse_factor_vectors(cfg, RngStream(cfg.seed))
    for stack in (xs, ys, zs):
        assert stack.shape == (200, 100)
        nnz = np.count_nonzero(stack, axis=1)
        assert np.all(nnz == 5)  # ceil(0.05 * 100)
        vals = stack[stack != 0.0]
        assert vals.min() > 0.0 and vals.max() < 1.0


def test_sparse_vector_position_frequencies():
    # over many draws each position is occupied at roughly the density rate,
    # so a fixed entry of one outer-product term is nonzero with probability
    # about density**3; the per-draw nonzero fraction is exactly density**3
    cfg = SparseGenConfig(n=100, gamma=2.0, density=0.05)
    rng = RngStream(7)
    draws = 10_000
    nnz = math.ceil(cfg.density * cfg.n)
    hits = np.zeros(cfg.n)
    for _ in range(draws):
        hits[rng.index_sample(cfg.n, nnz)] += 1
    freq = hits / draws
    assert np.all(np.abs(freq - cfg.density) <= 0.2 * cfg.density)
    xs, ys, zs = sparse_factor_vectors(cfg, RngStream(3))
    term = np.einsum("i,j,k->ijk", xs[0], ys[0], zs[0])
    assert np.count_nonzero(term) / term.size == pytest.approx(cfg.density**3)


def test_sparse_tensor_deterministic():
    cfg = SparseGenConfig(n=30, gamma=5.0, seed=11)
    assert np.array_equal(sparse_lowrank_tensor(cfg), sparse_lowrank_tensor(cfg))


def test_sparse_tensor_rank_bounded_by_terms(monkeypatch):
    # each unfolding is a sum of one rank-1 contribution per term; with 30
    # terms in place of the paper's 200, rank 30 is below n = 40
    monkeypatch.setattr(datagen, "_TOTAL_TERMS", 30)
    x = sparse_lowrank_tensor(SparseGenConfig(n=40, gamma=5.0, seed=0))
    for n in (1, 2, 3):
        sigma = scipy.linalg.svdvals(unfold(x, n))
        assert sigma[30] <= 1e-12 * sigma[0]


def test_sparse_gap_reduces_tail():
    # larger gamma concentrates energy in the leading terms, shrinking the
    # relative rank-10 tail of the mode-1 unfolding
    def rel_tail(gamma):
        cfg = SparseGenConfig(n=100, gamma=gamma, seed=4)
        x = sparse_lowrank_tensor(cfg)
        sigma = scipy.linalg.svdvals(unfold(x, 1))
        return float(np.sum(sigma[10:] ** 2) / np.sum(sigma**2))

    assert rel_tail(200.0) < rel_tail(2.0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_sparse_config_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        SparseGenConfig(n=5, gamma=gamma)


@pytest.mark.parametrize("field", ["n", "seed"])
def test_sparse_config_integer_fields_take_only_integers(field):
    with pytest.raises(ValueError, match=f"^{field} takes integers only, got 10.5$"):
        SparseGenConfig(**{"n": 20, "gamma": 1.0, field: 10.5})
    cfg = SparseGenConfig(**{"n": 20, "gamma": 1.0, field: np.int64(10)})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 10


@pytest.mark.parametrize(
    "make", [lambda d: hilbert_tensor(d), lambda d: gaussian_tensor(d, RngStream(2))], ids=["hilbert", "gaussian"]
)
def test_generator_dims_take_only_integers(make):
    for bad in ((6.5, 6, 6), (3.9, 2, 2)):
        with pytest.raises(ValueError, match=r"^dims takes integers only"):
            make(bad)
    assert make(np.array([3, 2], dtype=np.int32)).shape == (3, 2)


def test_sparse_config_validation():
    with pytest.raises(ValueError):
        SparseGenConfig(n=0, gamma=1.0)
    with pytest.raises(ValueError):
        SparseGenConfig(n=5, gamma=0.0)
    with pytest.raises(ValueError):
        SparseGenConfig(n=5, gamma=1.0, density=1.5)


# ----------------------------------------------------------------- gaussian


def test_gaussian_tensor_deterministic_and_shapes():
    a = gaussian_tensor((5, 4, 3), RngStream(1))
    b = gaussian_tensor((5, 4, 3), RngStream(1))
    assert np.array_equal(a, b)
    single = gaussian_tensor((1,), RngStream(2))
    assert single.shape == (1,)
    for bad in ((), (3, 0)):
        with pytest.raises(ValueError, match="nonempty tuple of positive integers"):
            gaussian_tensor(bad, RngStream(2))


def test_gaussian_tensor_moments():
    x = gaussian_tensor((50, 50, 50), RngStream(3))
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.05


# -------------------------------------------------------------------- noise


def test_scaled_noise_zero_delta_bit_exact():
    x = gaussian_tensor((6, 6), RngStream(4))
    y = add_scaled_noise(x, 0.0, RngStream(5))
    assert np.array_equal(x, y)
    with pytest.raises(ValueError):
        add_scaled_noise(x, -1.0, RngStream(5))


@pytest.mark.parametrize("delta", [math.inf, math.nan], ids=["inf", "nan"])
def test_scaled_noise_rejects_a_non_finite_scale(delta):
    x = gaussian_tensor((6, 6), RngStream(4))
    with pytest.raises(ValueError, match=rf"^noise scale must be finite and nonnegative, got {delta!r}$"):
        add_scaled_noise(x, delta, RngStream(5))


def test_scaled_noise_chi_concentration():
    x = hilbert_tensor((100, 100, 100))
    delta = 1e-3
    noisy = add_scaled_noise(x, delta, RngStream(6))
    ratio = frobenius_norm(noisy - x) / (delta * np.sqrt(x.size))
    assert abs(ratio - 1.0) <= 0.05


def test_awgn_empirical_snr():
    x = hilbert_tensor((100, 100, 100))
    for target in (10.0, 20.0):
        noisy = add_awgn(x, target, RngStream(8))
        measured = 10 * np.log10(
            frobenius_norm(x) ** 2 / frobenius_norm(noisy - x) ** 2
        )
        assert abs(measured - target) <= 0.2


def test_awgn_huge_snr_capped():
    x = hilbert_tensor((20, 20, 20))
    noisy = add_awgn(x, 1e9, RngStream(9))
    assert frobenius_norm(noisy - x) <= 1e-10 * frobenius_norm(x)


@pytest.mark.parametrize("snr_db", [-4000.0, -3300.0, -3200.0, -math.inf, math.nan])
def test_awgn_without_finite_noise_scale_is_a_parameter_error(snr_db):
    # 10 ** (snr / 10) underflows to 0, or power / it overflows, or is NaN
    with pytest.raises(ValueError, match=r"^SNR .* dB at signal power .* gives no finite noise scale$"):
        add_awgn(hilbert_tensor((6, 6, 6)), snr_db, RngStream(11))


@pytest.mark.parametrize("snr_db", [-3000.0, 20.0, 1e6])
def test_awgn_keeps_its_bits_where_the_scale_is_finite(snr_db):
    x = hilbert_tensor((6, 6, 6))
    sigma = np.sqrt(float(np.mean(np.square(x))) / 10.0 ** (min(snr_db, 300.0) / 10.0))
    expected = x + sigma * gaussian_tensor(x.shape, RngStream(11))
    assert add_awgn(x, snr_db, RngStream(11)).tobytes() == expected.tobytes()


def test_awgn_zero_signal_warns():
    with pytest.warns(RuntimeWarning):
        y = add_awgn(np.zeros((3, 3)), 20.0, RngStream(10))
    assert not y.any()


def test_noise_floor_for_downstream_decompositions():
    # with additive noise at scale delta, a low-rank approximation cannot do
    # better than the bulk noise energy
    from tucksketch.config import ApproxConfig
    from tucksketch.tucker import reconstruct, sthosvd

    cfg = SparseGenConfig(n=100, gamma=200.0, seed=12)
    x = sparse_lowrank_tensor(cfg)
    delta = 1e-3
    noisy = add_scaled_noise(x, delta, RngStream(13))
    clean_model = sthosvd(x, ApproxConfig(target_ranks=(10, 10, 10)))
    noisy_model = sthosvd(noisy, ApproxConfig(target_ranks=(10, 10, 10)))
    clean_abs = frobenius_norm(x - reconstruct(clean_model))
    noisy_abs = frobenius_norm(noisy - reconstruct(noisy_model))
    floor = delta * np.sqrt(noisy.size)
    assert noisy_abs >= 0.9 * floor
    assert noisy_abs <= 1.5 * (clean_abs + floor)


# ------------------------------------------------------------------- layout


def _c_hilbert(dims):
    # the same sums, formed row-major
    grids = np.ix_(*(np.arange(1, d + 1, dtype=np.float64) for d in dims))
    return 1.0 / functools.reduce(np.add, grids)


def _c_sparse(cfg):
    xs, ys, zs = sparse_factor_vectors(cfg, RngStream(cfg.seed))
    return np.einsum("ti,tj,tk->ijk", term_weights(cfg)[:, None] * xs, ys, zs, optimize=True)


def _c_gaussian(dims, seed):
    # the draws fill the tensor first index fastest
    draws = RngStream(seed).normal(math.prod(dims))
    return np.ascontiguousarray(np.transpose(draws.reshape(dims[::-1])))


def assert_column_major_copy_of(x, ref):
    """x is F-contiguous, bit-equal to ref, and unfolds in modes 1 and N as views."""
    assert x.flags.f_contiguous
    assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
    assert np.shares_memory(unfold(x, 1), x)
    assert np.shares_memory(unfold(x, x.ndim), x)


# name -> (generator call, the row-major reference of its values)
LAYOUT_CASES = {
    "hilbert": (lambda: hilbert_tensor((7, 5, 6)), lambda: _c_hilbert((7, 5, 6))),
    "hilbert-4d": (lambda: hilbert_tensor((3, 4, 2, 5)), lambda: _c_hilbert((3, 4, 2, 5))),
    "sparse": (
        lambda: sparse_lowrank_tensor(SparseGenConfig(n=30, gamma=4.0, seed=2)),
        lambda: _c_sparse(SparseGenConfig(n=30, gamma=4.0, seed=2)),
    ),
    "gaussian": (lambda: gaussian_tensor((4, 6, 5), RngStream(7)), lambda: _c_gaussian((4, 6, 5), 7)),
}


@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_generators_return_column_major(case):
    make, reference = LAYOUT_CASES[case]
    assert_column_major_copy_of(make(), reference())


@pytest.mark.parametrize("case", LAYOUT_CASES)
@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_scaled_noise_keeps_column_major(case, delta):
    make, reference = LAYOUT_CASES[case]
    x, ref = make(), reference()
    assert ref.flags.c_contiguous
    noisy = add_scaled_noise(x, delta, RngStream(11))
    assert_column_major_copy_of(noisy, add_scaled_noise(ref, delta, RngStream(11)))

import numpy as np
import pytest
import scipy.linalg

from tucksketch.config import ApproxConfig
from tucksketch.datagen import add_scaled_noise, hilbert_tensor
from tucksketch.linalg import (
    _GRAM_FLOOR,
    _GRAM_GUARD,
    _QR_BLOCK,
    _gram_eigh,
    _left_factor,
    _min_norm_lstsq,
    _qr_left_factor,
    rsvd,
    sketch,
    sub_sketch,
    thin_qr,
    thin_svd,
    truncated_svd,
)
from tucksketch.metrics import relative_error
from tucksketch.rng import RngStream
from tucksketch.tensor import mode_n_product, unfold
from tucksketch.tucker import TuckerModel, _canonical_signs, reconstruct, thosvd


def gram_singular_values(a):
    """Independent spectrum oracle via the symmetric eigenproblem of A'A."""
    m, n = a.shape
    gram = a.T @ a if n <= m else a @ a.T
    vals = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(vals, 0.0, None))


def tail_sq(sigma, j):
    """Sum of squared values from 1-based position j on."""
    return float(np.sum(np.asarray(sigma)[j - 1 :] ** 2))


def matrix_with_spectrum(m, n, sigma, seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(sigma))))[0]
    return (u * sigma) @ v.T


def f_ratio(s, t):
    return s / (t - s - 1)


def laid_out(shape, layout, seed):
    """A random matrix of the given shape stored C-ordered, F-ordered, as the
    transposed view of a C-ordered array, or as a strided slice of a larger one."""
    rng = np.random.default_rng(seed)
    m, n = shape
    if layout == "C":
        return rng.standard_normal(shape)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(shape))
    if layout == "T":
        return rng.standard_normal((n, m)).T
    return rng.standard_normal((2 * m + 1, 3 * n))[1::2, ::3]


LAYOUTS = ["C", "F", "T", "strided"]


# ---------------------------------------------------------------- thin_qr


def test_thin_qr_orthonormal_input():
    rng = np.random.default_rng(0)
    a = np.linalg.qr(rng.standard_normal((12, 5)))[0]
    q, r = thin_qr(a)
    # Q equals A up to column signs, R is a sign matrix
    assert np.allclose(np.abs(q.T @ a), np.eye(5), atol=1e-12)
    assert np.allclose(np.abs(r), np.eye(5), atol=1e-12)


def test_thin_qr_pythagorean_column():
    q, r = thin_qr(np.array([[3.0], [4.0]]))
    assert np.allclose(np.abs(q), [[0.6], [0.8]], atol=1e-15)
    assert abs(abs(r[0, 0]) - 5.0) < 1e-14


def test_thin_qr_residual_and_orthogonality():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 10))
    q, r = thin_qr(a)
    norm = np.linalg.norm(a)
    assert np.linalg.norm(a - q @ r) <= 1e-12 * norm
    assert np.linalg.norm(q.T @ q - np.eye(10)) <= 1e-12
    assert np.allclose(r, np.triu(r))


@pytest.mark.parametrize("shape", [(30, 21), (21, 30), (0, 4), (4, 0)])
def test_thin_qr_of_zero_and_empty_matrices(shape):
    q, r = thin_qr(np.zeros(shape))
    k = min(shape)
    assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
    assert np.array_equal(q.T @ q, np.eye(k))
    assert not r.any()


def test_linalg_never_calls_scipy_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.qr called")

    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    # a graded spectrum sends THOSVD and the power step to their QR routes
    x = hilbert_tensor((20, 20, 20))
    thosvd(x, ApproxConfig(target_ranks=(5, 5, 5)))
    a = unfold(x, 1)
    sub_sketch(a, 5, 11, 2, RngStream(10))
    rsvd(a, 5, 3, RngStream(11))


# ----------------------------------------------------------------- thin_svd


def row_norms(c):
    """Row norms of c = diag(s) @ vt, which are the singular values s."""
    return np.linalg.norm(c, axis=1)


def assert_diagonal_gram(c, tol=1e-12):
    """c @ c.T is diagonal, as it is when c = diag(s) @ vt with orthonormal v."""
    gram = c @ c.T
    off = gram - np.diag(np.diagonal(gram))
    assert np.linalg.norm(off) <= tol * max(np.linalg.norm(gram), 1.0)


def test_thin_svd_diag():
    _, s, _ = thin_svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])


def test_thin_svd_zero_matrix():
    u, s, _ = thin_svd(np.zeros((4, 3)))
    assert np.allclose(s, 0.0)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-14)


def test_thin_svd_reconstruction_and_gram_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 25))
    u, s, vt = thin_svd(a)
    norm = np.linalg.norm(a)
    assert np.linalg.norm(a - (u * s) @ vt) <= 1e-12 * norm
    oracle = gram_singular_values(a)
    assert np.allclose(s, oracle, atol=1e-10 * oracle[0])


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", [(40, 15), (15, 40)])
def test_thin_svd_layouts(shape, layout):
    a = laid_out(shape, layout, seed=40)
    u, s, vt = thin_svd(a)
    k = min(shape)
    assert u.shape == (shape[0], k) and vt.shape == (k, shape[1])
    assert np.linalg.norm(a - (u * s) @ vt) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(u.T @ u - np.eye(k)) <= 1e-12
    assert np.linalg.norm(vt @ vt.T - np.eye(k)) <= 1e-12
    assert np.all(np.diff(s) <= 0.0)
    assert np.allclose(s, scipy.linalg.svdvals(a), rtol=0.0, atol=1e-13 * s[0])


@pytest.mark.parametrize("shape", [(40, 15), (15, 40)])
def test_thin_svd_of_transpose_swaps_factors(shape):
    a = laid_out(shape, "C", seed=41)
    u, s, vt = thin_svd(a)
    tu, ts, tvt = thin_svd(a.T)
    assert np.allclose(ts, s, rtol=0.0, atol=1e-13 * s[0])
    for x, y in ((tu, vt.T), (tvt.T, u)):
        signs = np.sign(np.sum(x * y, axis=0))
        assert np.allclose(x, y * signs, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
def test_svds_reject_non_finite_entries(shape, bad):
    # LAPACK's SVD, as NumPy calls it, never returns on an inf; the SVD
    # routes raise before they reach it
    a = laid_out(shape, "F", seed=43)
    a[1, 2] = bad
    for factor in (thin_svd, lambda a: truncated_svd(a, 2), lambda a: _qr_left_factor(a.T @ a, 2)):
        with pytest.raises(ValueError, match="SVD input has a NaN or an inf"):
            factor(a)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "shape",
    # below, at, not a multiple of, and well above the QR block size; wide
    [(40, 15), (15, 40), (40, 1), (40, _QR_BLOCK), (60, _QR_BLOCK + 5), (300, 100),
     (_QR_BLOCK + 5, 60), (1, 7)],
)
def test_thin_qr_layouts(shape, layout):
    a = laid_out(shape, layout, seed=42)
    before = a.copy()
    q, r = thin_qr(a)
    k = min(shape)
    assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
    assert np.linalg.norm(a - q @ r) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12
    assert np.array_equal(r, np.triu(r))
    assert np.array_equal(a, before)
    # R matches LAPACK's unblocked dgeqrf up to the signs of its rows
    ref = scipy.linalg.qr(a, mode="r")[0][:k]
    assert np.linalg.norm(np.abs(r) - np.abs(ref)) <= 1e-12 * np.linalg.norm(a)


# ------------------------------------------------------------ truncated_svd


def test_truncated_svd_tail():
    u, c = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(row_norms(c), [3.0, 2.0])
    assert abs(np.linalg.norm(np.diag([3.0, 2.0, 1.0]) - u @ c) - 1.0) < 1e-12


def test_truncated_svd_full_rank_reconstructs():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 7))
    u, c = truncated_svd(a, 7)
    assert np.linalg.norm(a - u @ c) <= 1e-12 * np.linalg.norm(a)


def test_truncated_svd_eckart_young_oracle():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((30, 20))
    u, c = truncated_svd(a, 5)
    resid_sq = np.linalg.norm(a - u @ c) ** 2
    oracle_tail = tail_sq(gram_singular_values(a), 6)
    assert abs(resid_sq - oracle_tail) <= 1e-10 * oracle_tail


def test_truncated_svd_rejects_bad_rank():
    a = np.zeros((4, 4))
    with pytest.raises(ValueError):
        truncated_svd(a, 0)
    with pytest.raises(ValueError):
        truncated_svd(a, 5)
    # r above min(m, n): no zero padding, on either orientation
    for shape in ((8, 3), (3, 8)):
        with pytest.raises(ValueError, match="rank 4 out of range"):
            truncated_svd(np.ones(shape), 4)


# ------------------------------------------------------------------- rsvd


def test_rsvd_exact_rank_recovery():
    a = matrix_with_spectrum(40, 30, np.array([5.0, 2.0, 1.0]), seed=8)
    u, c = rsvd(a, 3, 2, RngStream(0))
    assert np.linalg.norm(a - u @ c) <= 1e-10 * np.linalg.norm(a)


def test_rsvd_zero_matrix():
    _, c = rsvd(np.zeros((10, 8)), 2, 1, RngStream(0))
    assert np.allclose(row_norms(c), 0.0)


def test_rsvd_with_k_equal_to_the_column_count_is_exact():
    # k = n: a square sign Omega is singular for most seeds at n = 4, so
    # rsvd takes Q from a itself and matches the truncated SVD on every seed
    a = np.random.default_rng(21).standard_normal((8, 4))
    ref, c_ref = _canonical_signs(*truncated_svd(a, 2))
    for seed in range(40):
        u, c = _canonical_signs(*rsvd(a, 2, 2, RngStream(seed)))
        assert np.max(np.abs(u - ref)) <= 1e-12, seed
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref)), seed


def test_rsvd_rejects_oversized_sketch():
    with pytest.raises(ValueError):
        rsvd(np.zeros((10, 8)), 6, 3, RngStream(0))


def test_rsvd_rejects_zero_rank_and_negative_oversampling():
    with pytest.raises(ValueError, match="rank must be at least 1"):
        rsvd(np.ones((10, 8)), 0, 2, RngStream(0))
    with pytest.raises(ValueError, match="oversampling must be nonnegative"):
        rsvd(np.ones((10, 8)), 2, -1, RngStream(0))


def test_rsvd_mean_residual_within_tail_regime():
    sigma = 2.0 ** -np.arange(1, 81)
    a = matrix_with_spectrum(100, 80, sigma, seed=9)
    tail = tail_sq(sigma, 11)
    resid = []
    for seed in range(100):
        u, c = rsvd(a, 10, 5, RngStream(seed))
        resid.append(np.linalg.norm(a - u @ c) ** 2)
    assert np.mean(resid) <= 10.0 * tail


# ------------------------------------------------------------------ sketch


def test_sketch_exact_rank():
    a = matrix_with_spectrum(50, 40, np.array([4.0, 2.0, 1.0]), seed=10)
    q, xc = sketch(a, 5, 8, RngStream(1))
    assert q.shape == (50, 5)
    assert xc.shape == (5, 40)
    assert np.linalg.norm(a - q @ xc) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("power_iters", [0, 1])
def test_sketch_with_k_equal_to_the_column_count_is_exact(power_iters):
    # k = n: range(Y) must be range(a) on every seed, not only when a square
    # sign Omega happens to be invertible
    a = np.random.default_rng(22).standard_normal((8, 4))
    for seed in range(40):
        q, xc = sub_sketch(a, 4, 8, power_iters, RngStream(seed))
        assert np.linalg.norm(a - q @ xc) <= 1e-12 * np.linalg.norm(a), seed


def test_sketch_zero_matrix():
    _, xc = sketch(np.zeros((10, 8)), 2, 4, RngStream(0))
    assert np.allclose(xc, 0.0)


# (k, l) on a 10 x 8 matrix, and the message of the first rule it breaks:
# (9, 12) breaks both size rules, and the k rule is checked first
_SKETCH_VIOLATIONS = {
    (0, 4): "sketch sizes must be positive",
    (3, 0): "sketch sizes must be positive",
    (5, 4): r"sketch size k=5 must satisfy k <= min\(l=4, n=8\)",
    (9, 12): r"sketch size k=9 must satisfy k <= min\(l=12, n=8\)",
    (3, 11): "sketch size l=11 must not exceed the row count 10",
}


@pytest.mark.parametrize("k,l", list(_SKETCH_VIOLATIONS))
def test_sketch_parameter_violations(k, l):
    a = np.zeros((10, 8))
    with pytest.raises(ValueError, match=_SKETCH_VIOLATIONS[k, l]):
        sketch(a, k, l, RngStream(0))
    with pytest.raises(ValueError, match=_SKETCH_VIOLATIONS[k, l]):
        sub_sketch(a, k, l, 1, RngStream(0))


def test_sketch_expected_error_bound_monte_carlo():
    # mean squared error over 200 seeds against the two-sided-sketch bound
    # (1 + f(k, l)) * min_rho (1 + f(rho, k)) * tail_{rho+1}, 10% slack
    k, l = 10, 15
    sigma = 1.0 / np.arange(1, 61) ** 2
    a = matrix_with_spectrum(80, 60, sigma, seed=11)
    bound = (1 + f_ratio(k, l)) * min(
        (1 + f_ratio(rho, k)) * tail_sq(sigma, rho + 1) for rho in range(1, k - 1)
    )
    errs = []
    for seed in range(200):
        q, xc = sketch(a, k, l, RngStream(seed))
        errs.append(np.linalg.norm(a - q @ xc) ** 2)
    assert np.mean(errs) <= 1.10 * bound


def test_error_decomposition_identity():
    # ||A - QX||^2 == ||A - QQ'A||^2 + ||X - Q'A||^2 for every run
    rng = np.random.default_rng(12)
    for seed in range(10):
        a = rng.standard_normal((40, 30))
        q, xc = sketch(a, 6, 9, RngStream(seed))
        total = np.linalg.norm(a - q @ xc) ** 2
        proj = np.linalg.norm(a - q @ (q.T @ a)) ** 2
        corr = np.linalg.norm(xc - q.T @ a) ** 2
        assert abs(total - (proj + corr)) <= 1e-10 * np.linalg.norm(a) ** 2


def test_sketch_deterministic():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 20))
    q1, xc1 = sketch(a, 4, 6, RngStream(77))
    q2, xc2 = sketch(a, 4, 6, RngStream(77))
    assert np.array_equal(q1, q2)
    assert np.array_equal(xc1, xc2)


# -------------------------------------------------------------- sub_sketch


def test_sub_sketch_exact_rank():
    a = matrix_with_spectrum(50, 40, np.array([4.0, 2.0, 1.0]), seed=14)
    q, xc = sub_sketch(a, 5, 8, 1, RngStream(2))
    assert np.linalg.norm(a - q @ xc) <= 1e-10 * np.linalg.norm(a)


def test_sub_sketch_flat_projector_spectrum():
    # an orthogonal projector has a flat spectrum of ones; k >= rank captures it
    rng = np.random.default_rng(15)
    u = np.linalg.qr(rng.standard_normal((30, 4)))[0]
    a = u @ u.T
    q, xc = sub_sketch(a, 6, 9, 2, RngStream(3))
    assert np.linalg.norm(a - q @ xc) <= 1e-10


def test_sub_sketch_q0_equals_sketch_bitwise():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((25, 18))
    q1, xc1 = sketch(a, 5, 7, RngStream(8))
    q2, xc2 = sub_sketch(a, 5, 7, 0, RngStream(8))
    assert np.array_equal(q1, q2)
    assert np.array_equal(xc1, xc2)


def test_sub_sketch_rejects_negative_power():
    # q is checked before the sizes: (0, 11) breaks two size rules
    for k, l in ((2, 4), (0, 11)):
        with pytest.raises(ValueError, match="power iteration count must be nonnegative"):
            sub_sketch(np.zeros((10, 8)), k, l, -1, RngStream(0))


def test_power_iteration_improves_slow_decay():
    sigma = np.arange(1, 201) ** -0.5
    a = matrix_with_spectrum(200, 200, sigma, seed=17)
    plain, powered = [], []
    for seed in range(30):
        q, xc = sub_sketch(a, 10, 12, 0, RngStream(seed))
        plain.append(np.linalg.norm(a - q @ xc))
        q, xc = sub_sketch(a, 10, 12, 2, RngStream(seed))
        powered.append(np.linalg.norm(a - q @ xc))
    assert np.median(powered) <= np.median(plain)


# -------------------------------------------------------------- invariants


def test_returned_bases_are_orthonormal():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((40, 30))
    stream = RngStream(21)
    candidates = [
        thin_qr(a)[0],
        thin_svd(a)[0],
        thin_svd(a)[2].T,
        truncated_svd(a, 7)[0],
        rsvd(a, 5, 3, stream)[0],
    ]
    # the right factor of each SVD kernel is orthonormal: c = diag(s) @ vt
    assert_diagonal_gram(truncated_svd(a, 7)[1])
    assert_diagonal_gram(rsvd(a, 5, 3, stream)[1])
    candidates += [sketch(a, 5, 8, stream)[0], sub_sketch(a, 5, 8, 2, stream)[0]]
    for q in candidates:
        cols = q.shape[1]
        assert np.linalg.norm(q.T @ q - np.eye(cols)) <= 1e-12 * np.sqrt(cols)


def test_truncated_singular_values_match_oracle():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((200, 150))
    _, c = truncated_svd(a, 20)
    oracle = gram_singular_values(a)[:20]
    assert np.allclose(row_norms(c), oracle, rtol=1e-10)


def test_min_norm_lstsq_rank_deficient_warns_across_blocks():
    # 21 columns of rank 5: the blocked QR must still expose the tiny pivots
    rng = np.random.default_rng(20)
    a = rng.standard_normal((40, 5)) @ rng.standard_normal((5, _QR_BLOCK + 5))
    b = rng.standard_normal((40, 3))
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        x = _min_norm_lstsq(a, b)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, expected, atol=1e-10 * np.linalg.norm(expected))


def test_min_norm_lstsq_rank_deficient_warns():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0], [1.0], [1.0]])
    with pytest.warns(RuntimeWarning):
        x = _min_norm_lstsq(a, b)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, expected, atol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_min_norm_lstsq_matches_lstsq_on_any_layout(layout):
    # the sketch system: a tall l x k matrix, a wide l x n right-hand side
    a = laid_out((15, 6), "C", seed=43)
    b = laid_out((15, 90), layout, seed=44)
    before = b.copy()
    x = _min_norm_lstsq(a, b)
    expected = scipy.linalg.lstsq(a, b)[0]
    assert x.shape == (6, 90)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.array_equal(b, before)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_min_norm_lstsq_rank_deficient_falls_back_on_any_layout(layout):
    rng = np.random.default_rng(45)
    a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 5))
    b = laid_out((12, 30), layout, seed=46)
    with pytest.warns(RuntimeWarning):
        x = _min_norm_lstsq(a, b)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, expected, atol=1e-10 * np.linalg.norm(expected))


def _svd_basis(a):
    """The left singular vectors of a full-rank a: an orthonormal basis of range(a)."""
    return np.linalg.svd(a, full_matrices=False)[0]


def _draw_test_matrix(rng, n, k):
    """Omega or Psi^T, n x k, as the kernels draw both: random signs from n = 64 on, Gaussian below."""
    return rng.signs(n, k) if n >= 64 else rng.normal(n, k)


def _sketch_with_orthonormal_omega(a, k, l, power_iters, seed, psi_basis=_svd_basis):
    """The two-sided sketch with Omega orthonormalized by an SVD, from the same draws.

    Psi's rows are psi_basis of the kernels' draw of Psi^T: by default its
    left singular vectors, a basis other than the library's Householder Q.
    """
    m, n = a.shape
    rng = RngStream(seed)
    omega = _svd_basis(_draw_test_matrix(rng, n, k))
    psi = psi_basis(_draw_test_matrix(rng, m, l)).T
    q = np.linalg.qr(a @ omega)[0]
    for _ in range(power_iters):
        q = np.linalg.qr(a @ np.linalg.qr(a.T @ q)[0])[0]
    return q @ scipy.linalg.lstsq(psi @ q, psi @ a)[0]


@pytest.mark.parametrize("power_iters", [0, 1])
def test_sketch_does_not_depend_on_the_basis_of_omega(power_iters):
    # q spans range(a @ omega), which orthonormalizing omega does not move
    a = matrix_with_spectrum(60, 45, 1.0 / np.arange(1, 46), seed=47)
    k, l, seed = 6, 13, 48
    q, xc = (
        sketch(a, k, l, RngStream(seed))
        if power_iters == 0
        else sub_sketch(a, k, l, power_iters, RngStream(seed))
    )
    expected = _sketch_with_orthonormal_omega(a, k, l, power_iters, seed)
    assert np.linalg.norm(q @ xc - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("power_iters", [0, 1])
def test_sketch_does_not_depend_on_the_basis_of_psi(power_iters):
    # the Householder rows of Psi are a rotation of its singular-vector rows,
    # and X_c = (Psi Q)^+ Psi A does not see a rotation of orthonormal rows
    a = matrix_with_spectrum(60, 45, 1.0 / np.arange(1, 46), seed=47)
    k, l, seed = 6, 13, 48
    by_svd = _sketch_with_orthonormal_omega(a, k, l, power_iters, seed)
    by_qr = _sketch_with_orthonormal_omega(
        a, k, l, power_iters, seed, psi_basis=lambda g: thin_qr(g)[0]
    )
    assert np.linalg.norm(by_qr - by_svd) <= 1e-12 * np.linalg.norm(by_svd)
    # the two bases differ: the test compares two rotations, not one matrix twice
    rng = RngStream(seed)
    _draw_test_matrix(rng, a.shape[1], k)
    g = _draw_test_matrix(rng, a.shape[0], l)
    assert not np.allclose(np.abs(thin_qr(g)[0]), np.abs(_svd_basis(g)))


# ---------------------------------------------------------------- left factor


def assert_orthonormal_columns(u, tol=1e-12):
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= tol


def signed(u):
    """u under the pipelines' sign rule, applied with an empty core unfolding."""
    return _canonical_signs(u, np.empty((u.shape[1], 0)))[0]


def test_left_factor_routes_agree_on_separated_spectrum():
    sigma = 2.0 ** -np.arange(12)
    a = matrix_with_spectrum(12, 300, sigma, seed=50)
    gram = _gram_eigh(a, 5)
    assert gram is not None
    qr = _qr_left_factor(a, 5)
    assert scipy.linalg.svdvals(gram.T @ qr).min() >= 1 - 1e-12
    gram, qr = signed(gram), signed(qr)
    assert np.max(np.abs(gram - qr)) <= 1e-10
    # the kernel leaves the signs to the pipelines' loop
    assert np.array_equal(signed(_left_factor(a, 5)), gram)
    peaks = gram[np.argmax(np.abs(gram), axis=0), np.arange(5)]
    assert np.all(peaks > 0)


def test_left_factor_graded_spectrum_takes_qr_route():
    a = unfold(hilbert_tensor((40, 40, 40)), 1)
    # lambda_8 / lambda_1 is about 1e-12, below the sqrt(eps) guard
    assert _gram_eigh(a, 8) is None
    u = _left_factor(a, 8)
    assert np.array_equal(signed(u), signed(_qr_left_factor(a, 8)))
    ref, _ = truncated_svd(a, 8)
    assert scipy.linalg.svdvals(ref.T @ u).min() >= 1 - 1e-12
    # a rank whose lambda_r clears the guard takes the Gram route
    assert _gram_eigh(a, 5) is not None


@pytest.mark.parametrize(
    "a, r",
    [
        (np.zeros((6, 20)), 3),
        (np.zeros((6, 20)), 6),
        (np.random.default_rng(51).standard_normal((3, 4096)), 3),
        (np.random.default_rng(52).standard_normal((30, 4)), 4),
    ],
    ids=["zero", "zero-full", "full-rank-mode", "tall-r-equal-columns"],
)
def test_left_factor_orthonormal_columns(a, r):
    u = _left_factor(a, r)
    assert u.shape == (a.shape[0], r)
    assert_orthonormal_columns(u)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("route", ["gram", "qr"])
def test_left_factor_layouts_and_input_untouched(layout, route):
    sigma = 2.0 ** -np.arange(10) if route == "gram" else 10.0 ** -np.arange(10)
    a = matrix_with_spectrum(10, 200, sigma, seed=54)
    a = np.ascontiguousarray(a) if layout == "C" else np.asfortranarray(a)
    before = a.copy()
    r = 8
    assert (_gram_eigh(a, r) is None) == (route == "qr")
    u = _left_factor(a, r)
    assert np.array_equal(a, before)
    assert a.flags.c_contiguous == (layout == "C")
    assert_orthonormal_columns(u)
    ref, _ = truncated_svd(np.ascontiguousarray(before), r)
    assert scipy.linalg.svdvals(ref.T @ u).min() >= 1 - 1e-12


@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200, 1e-250, 1e-300])
def test_left_factor_of_tiny_entries_takes_no_subnormal_gram_matrix(scale):
    # below lambda_r = tiny / eps the products that form A A^T are subnormal
    # and lose digits; the R-only QR route scales its norms instead
    a = np.random.default_rng(56).standard_normal((6, 56))
    assert _gram_eigh(a, 3) is not None
    assert _gram_eigh(a * scale, 3) is None
    # the two routes agree up to column signs, which the sign rule fixes
    tiny, plain = signed(_left_factor(a * scale, 3)), signed(_left_factor(a, 3))
    assert np.max(np.abs(tiny - plain)) <= 1e-13


def subset_gram_eigh(a, r):
    """The Gram route as it stood on LAPACK's index-subset eigensolver."""
    m = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.T
    if not np.isfinite(gram).all():
        return None
    w, v = scipy.linalg.eigh(gram, subset_by_index=(m - r, m - 1))
    if not w[0] > max(_GRAM_GUARD * w[-1], _GRAM_FLOOR):
        return None
    return v[:, ::-1]


# (m, r) of the Gram matrices the pipelines factor on the benchmark workloads:
# THOSVD's unfoldings and rsvd's (r + p) x n projections
GRAM_SHAPES = [(256, 50), (55, 50), (25, 20), (15, 10), (200, 20), (100, 10)]


@pytest.mark.parametrize("m, r", GRAM_SHAPES, ids=[f"{m}x{r}" for m, r in GRAM_SHAPES])
@pytest.mark.parametrize(
    "spectrum, scale, passes",
    [
        ("separated", 1.0, True),
        ("separated", 1e-140, True),
        ("separated", 1e-160, False),
        ("separated", 1e160, False),
        ("graded", 1.0, False),
        ("rank-deficient", 1.0, False),
    ],
    ids=["separated", "small", "tiny", "overflowing", "graded", "rank-deficient"],
)
def test_gram_eigh_agrees_with_the_index_subset_eigh(m, r, spectrum, scale, passes):
    # every eigenpair by divide and conquer, then the top r: the same guard
    # decision and, under the sign rule, the same vectors as the subset call
    if spectrum == "separated":
        sigma = np.linspace(1.0, 0.5, m)
    elif spectrum == "graded":
        sigma = 10.0 ** -np.arange(m, dtype=float)
    else:
        sigma = np.linspace(1.0, 0.5, r - 1)
    a = matrix_with_spectrum(m, 2 * m + 7, sigma, seed=m + r) * scale
    got, ref = _gram_eigh(a, r), subset_gram_eigh(a, r)
    assert (got is not None) == (ref is not None) == passes
    if passes:
        assert got.shape == (m, r)
        assert_orthonormal_columns(got)
        assert np.max(np.abs(signed(got) - signed(ref))) <= 1e-12


def test_left_factor_tall_keeps_truncated_svd():
    a = np.random.default_rng(55).standard_normal((30, 4))
    assert np.array_equal(signed(_left_factor(a, 3)), signed(truncated_svd(a, 3)[0]))


def test_left_factor_rejects_bad_rank():
    a = np.ones((4, 10))
    for r in (0, 5):
        with pytest.raises(ValueError):
            _left_factor(a, r)


# ------------------------------------------------ randomized kernels, Gram route


def _range_sample(a, k, seed):
    """rsvd's Y: a @ Omega for an Omega of k columns, or a itself when k is the column count."""
    n = a.shape[1]
    return a if k == n else a @ _draw_test_matrix(RngStream(seed), n, k)


def _svd_of_projection_rsvd(a, r, p, seed):
    """rsvd as it was before the Gram route: the thin SVD of Q^T a, forming V."""
    q, _ = thin_qr(_range_sample(a, r + p, seed))
    u, s, vt = thin_svd(q.T @ a)
    return q @ u[:, :r], s[:r, None] * vt[:r]


def _householder_sub_sketch(a, k, l, power_iters, seed, draw_psi_t=_draw_test_matrix):
    """sub_sketch with the Householder power step: the Q of (Q^T a)^T, formed in full.

    Psi^T is draw_psi_t(rng, m, l), by default as the sketches draw it. The
    correction is formed as the library forms it, ((Psi Q)^+ Psi) a.
    """
    m, n = a.shape
    rng = RngStream(seed)
    y = a if k == n else a @ _draw_test_matrix(rng, n, k)
    psi = thin_qr(draw_psi_t(rng, m, l))[0].T
    q, _ = thin_qr(y)
    for _ in range(power_iters):
        q, _ = thin_qr(a @ thin_qr((q.T @ a).T)[0])
    return q, _min_norm_lstsq(psi @ q, psi) @ a


def _stored(a, layout):
    return np.ascontiguousarray(a) if layout == "C" else np.asfortranarray(a)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("shape", [(60, 300), (40, 12)], ids=["wide", "square-projection"])
def test_rsvd_matches_svd_of_projection_on_separated_spectrum(shape, layout):
    r, p = 8, 4  # r + p = 12 = n for the square projection
    a = _stored(matrix_with_spectrum(*shape, 2.0 ** -np.arange(12), seed=60), layout)
    before = a.copy()
    u, c = rsvd(a, r, p, RngStream(61))
    assert np.array_equal(a, before)
    q = thin_qr(_range_sample(a, r + p, 61))[0]
    assert _gram_eigh(q.T @ a, r) is not None
    u_ref, c_ref = _svd_of_projection_rsvd(a, r, p, 61)
    u, c = _canonical_signs(u, c)
    u_ref, c_ref = _canonical_signs(u_ref, c_ref)
    assert np.max(np.abs(u - u_ref)) <= 1e-10
    assert np.max(np.abs(c - c_ref)) <= 1e-10 * np.max(np.abs(c_ref))
    assert_orthonormal_columns(u)
    assert_diagonal_gram(c)


def test_rsvd_zero_and_graded_inputs_keep_orthonormal_factors():
    u, c = rsvd(np.zeros((12, 12)), 3, 9, RngStream(0))
    assert_orthonormal_columns(u)
    assert np.array_equal(c, np.zeros((3, 12)))
    # a graded spectrum fails the guard and takes the R-only QR route
    a = unfold(hilbert_tensor((30, 30, 30)), 1)
    q = thin_qr(_range_sample(a, 12, 62))[0]
    assert _gram_eigh(q.T @ a, 8) is None
    u, c = rsvd(a, 8, 4, RngStream(62))
    assert_orthonormal_columns(u)
    u_ref, c_ref = _svd_of_projection_rsvd(a, 8, 4, 62)
    assert np.linalg.norm(u @ c - u_ref @ c_ref) <= 1e-12 * np.linalg.norm(a)


# sigma_1 / sigma_6 = 8000 puts lambda_6 / lambda_1 of the first six at 1.6e-8,
# just above the sqrt(eps) guard, with the rest 1e-3 sigma_6 and below
_NEAR_GUARD = np.concatenate([8000.0 ** (-np.arange(6) / 5), 1e-3 / 8000 * 2.0 ** -np.arange(34)])


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("power_iters", [1, 2])
def test_sub_sketch_spans_householder_range_on_separated_spectrum(power_iters, layout):
    k, l, seed = 6, 13, 64
    cases = [
        ((80, 300), 2.0 ** -np.arange(40), 1e-12),
        # k = n: Q^T a is 6 x 6, and no Omega is drawn
        ((40, 6), 2.0 ** -np.arange(6), 1e-12),
        ((80, 300), _NEAR_GUARD, 1e-10),
    ]
    for shape, sigma, tol in cases:
        a = _stored(matrix_with_spectrum(*shape, sigma, seed=63), layout)
        before = a.copy()
        q, xc = sub_sketch(a, k, l, power_iters, RngStream(seed))
        assert np.array_equal(a, before)
        q_ref, xc_ref = _householder_sub_sketch(a, k, l, power_iters, seed)
        assert _gram_eigh(q_ref.T @ a, k) is not None
        assert_orthonormal_columns(q)
        assert scipy.linalg.svdvals(q.T @ q_ref).min() >= 1 - 1e-12
        # the same basis, not a rotation of it: a @ (Q^T a)^T and a times the
        # Householder Q of (Q^T a)^T differ by an upper triangle on the
        # right, which leaves a Householder Q unchanged, signs included
        assert np.max(np.abs(q - q_ref)) <= tol, shape
        assert np.linalg.norm(q @ xc - q_ref @ xc_ref) <= 1e-10 * np.linalg.norm(a)


def test_sub_sketch_of_zero_matrix_takes_householder_route():
    a = np.zeros((30, 40))
    k, l, seed = 4, 9, 67
    q, xc = sub_sketch(a, k, l, 2, RngStream(seed))
    # the zero Gram matrix fails the guard, so every round is Householder's
    assert _gram_eigh(q.T @ a, k) is None
    q_ref, xc_ref = _householder_sub_sketch(a, k, l, 2, seed)
    assert np.array_equal(q, q_ref)
    assert q.shape == (30, k)
    assert_orthonormal_columns(q)
    assert np.array_equal(xc, np.zeros((k, 40)))


@pytest.mark.parametrize("layout", ["C", "F"])
def test_sub_sketch_graded_spectrum_keeps_householder_bits(layout):
    a = _stored(unfold(hilbert_tensor((40, 40, 40)), 1), layout)
    k, l, seed = 8, 17, 65
    q_ref, xc_ref = _householder_sub_sketch(a, k, l, 2, seed)
    # lambda_8 / lambda_1 of the projected Gram matrix is far below sqrt(eps)
    assert _gram_eigh(q_ref.T @ a, k) is None
    q, xc = sub_sketch(a, k, l, 2, RngStream(seed))
    assert np.array_equal(q, q_ref)
    assert np.array_equal(xc, xc_ref)


@pytest.mark.parametrize("power_iters", [0, 2])
def test_sketches_of_64_or_more_rows_draw_no_normal(power_iters, monkeypatch):
    # Omega and Psi are both random signs: 64 rows and 100 columns, rank 5
    a = matrix_with_spectrum(64, 100, 2.0 ** -np.arange(5), seed=68)

    def refuse(*args, **kwargs):
        raise AssertionError("a Gaussian draw")

    monkeypatch.setattr(RngStream, "normal", refuse)
    q, xc = (
        sketch(a, 5, 11, RngStream(69))
        if power_iters == 0
        else sub_sketch(a, 5, 11, power_iters, RngStream(69))
    )
    assert_orthonormal_columns(q)
    assert np.linalg.norm(a - q @ xc) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("power_iters", [0, 2])
def test_sketches_under_64_rows_draw_psi_t_as_omega_is_drawn(power_iters):
    # 30 rows: Psi^T is the m x l Gaussian draw normal(m, l), filled column
    # by column as Omega is, bit for bit; the graded spectrum keeps the
    # power steps on the Householder route
    a = unfold(hilbert_tensor((30, 30, 30)), 1)
    k, l, seed = 6, 13, 70
    q_ref, xc_ref = _householder_sub_sketch(
        a, k, l, power_iters, seed, draw_psi_t=lambda rng, m, l: rng.normal(m, l)
    )
    q, xc = (
        sketch(a, k, l, RngStream(seed))
        if power_iters == 0
        else sub_sketch(a, k, l, power_iters, RngStream(seed))
    )
    assert np.array_equal(q, q_ref)
    assert np.array_equal(xc, xc_ref)


def _reference_thosvd(x, ranks):
    """THOSVD from the full truncated SVD of every unfolding."""
    factors = [truncated_svd(unfold(x, n), r)[0] for n, r in enumerate(ranks, start=1)]
    core = x
    for n, u in enumerate(factors, start=1):
        core = mode_n_product(core, u.T, n)
    return TuckerModel(core, factors)


def _noisy_tucker(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(ranks)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)]
    return add_scaled_noise(reconstruct(TuckerModel(core, factors)), 1e-3, RngStream(seed))


@pytest.mark.parametrize(
    "x, ranks",
    [
        (_noisy_tucker((24, 20, 30), (4, 3, 5), seed=56), (4, 3, 5)),
        (hilbert_tensor((30, 30, 30)), (8, 8, 8)),
    ],
    ids=["noisy-tucker", "hilbert-30"],
)
def test_thosvd_matches_svd_reference(x, ranks):
    model = thosvd(x, ApproxConfig(target_ranks=ranks))
    ref = _reference_thosvd(x, ranks)
    expected = reconstruct(ref)
    assert relative_error(expected, reconstruct(model)) <= 1e-10
    assert relative_error(x, reconstruct(model)) == pytest.approx(
        relative_error(x, expected), rel=1e-10
    )
    for n, (u, v, r) in enumerate(zip(model.factors, ref.factors, ranks), start=1):
        a = unfold(x, n)
        assert np.linalg.norm(u @ u.T - v @ v.T) <= _subspace_tolerance(a, r)


def _subspace_tolerance(a, r, c=100.0):
    """c eps sigma_1 / (sigma_r - sigma_{r+1}): how far two backward-stable
    factorizations may put the rank-r left singular subspace of a (Wedin's
    bound on sin theta for a perturbation of size eps sigma_1).

    On hilbert-30 (rank 8) the unit eps sigma_1 / gap is 6.5e-10, and a
    60-digit reference subspace of the same float64 unfolding lies 1.8e-10
    from LAPACK's gesdd, so no fixed tolerance tighter than that can hold
    for every correct factorization.
    """
    s = scipy.linalg.svdvals(a)
    return c * np.finfo(np.float64).eps * s[0] / (s[r - 1] - s[r])


def test_subspace_tolerance_rejects_a_gram_factor_of_a_graded_spectrum():
    # eigh of A A^T squares the condition number: on hilbert-30 its rank-8
    # subspace is 1.5e-3 away, far outside the tolerance the QR route meets
    a = unfold(hilbert_tensor((30, 30, 30)), 1)
    v = truncated_svd(a, 8)[0]
    g = scipy.linalg.eigh(a @ a.T, subset_by_index=(22, 29))[1]
    assert np.linalg.norm(g @ g.T - v @ v.T) > 1e3 * _subspace_tolerance(a, 8)
    u = _left_factor(a, 8)
    assert np.linalg.norm(u @ u.T - v @ v.T) <= _subspace_tolerance(a, 8)


# the public kernels as (a, rng) -> (basis, coefficients), at their default-like sizes
_PUBLIC_KERNELS = {
    "rsvd": lambda a, rng: rsvd(a, 5, 5, rng),
    "sketch": lambda a, rng: sketch(a, 5, 11, rng),
    "sub_sketch": lambda a, rng: sub_sketch(a, 5, 11, 1, rng),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e200, 1e307])
@pytest.mark.parametrize("kernel", _PUBLIC_KERNELS)
def test_public_kernels_keep_their_result_across_the_double_range(kernel, scale):
    # A scaled matrix's approximation is the scaled approximation of the
    # matrix, and near the largest double the overflow is named. The Gram
    # floor, the Gram eigh's finiteness check and the sketch product's
    # overflow check hold this: without them rsvd and sub_sketch lose digits
    # at 1e-160 and raise LinAlgError at 1e160 and 1e200, and at 1e307 none
    # of the three names the overflow. rsvd's factor signs may differ, so
    # the products are compared.
    run = _PUBLIC_KERNELS[kernel]
    for seed in range(5):
        a = np.random.default_rng(seed).standard_normal((60, 300))
        u, c = run(a, RngStream(seed))
        if scale == 1e307:
            with pytest.raises(ValueError, match="^sketch product overflowed: "):
                run(a * scale, RngStream(seed))
            continue
        us, cs = run(a * scale, RngStream(seed))
        assert np.linalg.norm(us @ (cs / scale) - u @ c) <= 1e-12 * np.linalg.norm(u @ c), seed

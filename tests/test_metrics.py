import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tucksketch.config import ApproxConfig
from tucksketch.datagen import hilbert_tensor
from tucksketch.linalg import truncated_svd
from tucksketch.metrics import (
    _BLOCK,
    BOUND_VARIANTS,
    bound_oracle,
    f_factor,
    psnr,
    relative_error,
    spectrum_summary,
    tail_energy,
)
from tucksketch.rng import RngStream
from tucksketch.tensor import frobenius_norm, mode_n_product, unfold
from tucksketch.tucker import TuckerModel, reconstruct, sketch_sthosvd, sthosvd


def random_tucker_tensor(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(ranks)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)]
    return reconstruct(TuckerModel(core, factors))


# ------------------------------------------------------------ simple metrics


def test_relative_error_values():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5, 6))
    assert relative_error(x, x) == 0.0
    assert relative_error(x, np.zeros_like(x)) == pytest.approx(1.0)
    assert relative_error(x, 2 * x) == pytest.approx(1.0)


def test_relative_error_zero_reference():
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), np.ones((2, 2)))


def test_relative_error_of_exact_zero_reconstruction():
    # both zero: an exact reconstruction, as psnr's +inf for identical inputs
    assert relative_error(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0


def test_psnr_values():
    x = np.full((4, 4, 1), 10.0)
    assert psnr(x, x, 255.0) == math.inf
    shifted = x + 255.0  # MSE = peak^2 exactly
    assert psnr(x, shifted, 255.0) == pytest.approx(0.0, abs=1e-12)
    for peak in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {peak!r}$"):
            psnr(x, shifted, peak)
    # an empty pair has zero error, as relative_error's 0.0 says
    empty = np.zeros((0, 3))
    assert psnr(empty, empty, 255.0) == math.inf and relative_error(empty, empty) == 0.0
    # a nonzero error whose mean underflows: err_sq is subnormal (1e-320), so
    # err_sq / x.size rounds to 0, and the PSNR is still finite
    x, xhat = np.zeros(100_000), np.zeros(100_000)
    x[:2] = 1.0, 1e-160
    xhat[0] = 1.0
    assert psnr(x, xhat, 1.0) == pytest.approx(10 * (320 + 5), rel=1e-3)


def test_scores_reject_a_shape_mismatch():
    # the last two pairs broadcast, so the check must come before the
    # blocked pass, whose iterator would pair them up
    x = np.ones((2, 3, 4))
    for score in (relative_error, lambda x, xhat: psnr(x, xhat, 1.0)):
        for shape in ((2, 4, 3), (1, 3, 4), (2, 3, 1)):
            with pytest.raises(ValueError, match="shape mismatch"):
                score(x, np.ones(shape))


@pytest.mark.filterwarnings("error")
def test_block_sums_whose_total_overflows_are_rescaled():
    # each block's plain sum of squares is finite (about 1.5e308), and only
    # their exact total overflows, inside math.fsum; the pass is then redone
    # with each block scaled by a power of two
    rng = np.random.default_rng(9)
    x = 6.8e151 * rng.uniform(0.99, 1.0, 2 * _BLOCK) * rng.choice([-1.0, 1.0], 2 * _BLOCK)
    xhat = x * (1.0 + 1e-3 * rng.standard_normal(x.size))
    sums = [float(np.dot(b, b)) for b in np.split(x, 2)]
    assert all(math.isfinite(s) for s in sums)
    with pytest.raises(OverflowError):
        math.fsum(sums)
    s = 2.0 ** 500
    expected = np.linalg.norm(x / s - xhat / s) / np.linalg.norm(x / s)
    assert relative_error(x, xhat) == pytest.approx(expected, rel=1e-12, abs=0)


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 255, size=(32, 32, 3))
    noisy = x + rng.standard_normal(x.shape)
    mse = np.mean((x - noisy) ** 2)
    assert psnr(x, noisy, 255.0) == pytest.approx(10 * math.log10(255.0**2 / mse), rel=1e-12)


def test_integer_inputs_do_not_wrap():
    # squares and differences of small unsigned or large signed integers
    # overflow their dtype; scoring must happen in float64
    x = np.array([20, 3], dtype=np.uint8)
    xhat = np.array([4, 3], dtype=np.uint8)
    assert relative_error(x, xhat) == pytest.approx(math.sqrt(256 / 409), rel=1e-15)
    assert psnr(x, xhat, 255.0) == pytest.approx(10 * math.log10(255.0**2 / 128), rel=1e-15)
    assert frobenius_norm(x) == pytest.approx(math.sqrt(409), rel=1e-15)
    big = np.array([4 * 10**9, -(10**9)], dtype=np.int64)
    ref = math.hypot(4e9, 1e9)
    assert frobenius_norm(big) == pytest.approx(ref, rel=1e-15)
    assert relative_error(big, np.zeros_like(big)) == pytest.approx(1.0, rel=1e-15)
    assert relative_error(big, -big) == pytest.approx(2.0, rel=1e-15)


def _pair(shape, layout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    xhat = x + 1e-3 * rng.standard_normal(shape)
    if layout == "F":
        return np.asfortranarray(x), np.asfortranarray(xhat)
    if layout == "mixed":
        return x, np.asfortranarray(xhat)
    if layout == "transposed":
        return x.transpose(2, 0, 1), np.asfortranarray(xhat).transpose(2, 0, 1)
    if layout == "sliced":
        return x[::2, :, ::-1], xhat[::2, :, ::-1]
    return x, xhat


# sizes in elements: below one block, one block, one past it, many blocks
BLOCK_SHAPES = [(5, 7, 11), (8, 64, _BLOCK // 512), (_BLOCK + 1, 1, 1), (50, 60, 70)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
@pytest.mark.parametrize("layout", ["C", "F", "mixed", "transposed", "sliced"])
def test_scores_match_dense_reference(shape, layout):
    x, xhat = _pair(shape, layout, seed=sum(shape))
    x0, xhat0 = x.copy(), xhat.copy()
    d = x - xhat
    ref_err = np.linalg.norm(d) / np.linalg.norm(x)
    ref_psnr = 10 * math.log10(4.0 / (np.linalg.norm(d) ** 2 / x.size))
    err = relative_error(x, xhat)
    quality = psnr(x, xhat, 2.0)
    assert abs(err - ref_err) <= 1e-13 * ref_err
    assert abs(quality - ref_psnr) <= 1e-13 * abs(ref_psnr)
    # deterministic, and the inputs are left untouched
    assert relative_error(x, xhat) == err
    assert psnr(x, xhat, 2.0) == quality
    assert np.array_equal(x, x0) and np.array_equal(xhat, xhat0)


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_scores_of_identical_and_zero_inputs(shape):
    x, _ = _pair(shape, "C", seed=1)
    assert relative_error(x, x) == 0.0
    assert relative_error(x, np.asfortranarray(x)) == 0.0
    assert psnr(x, x, 255.0) == math.inf
    with pytest.raises(ValueError):
        relative_error(np.zeros(shape), x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", BLOCK_SHAPES)
@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_scores_of_huge_finite_entries(shape, graded, scale):
    # entries above about 1e154 square to inf; the scores must not notice
    x, xhat = _pair(shape, "mixed", seed=3)
    if graded:  # blocks whose magnitudes differ by 150 orders
        small = np.arange(x.size).reshape(x.shape) < x.size // 2
        x = np.where(small, 1e-150 * x, x)
        xhat = np.asfortranarray(np.where(small, 1e-150 * xhat, xhat))
    err, quality = relative_error(x, xhat), psnr(x, xhat, 2.0)
    assert np.isfinite(err) and np.isfinite(quality)
    assert relative_error(x * scale, xhat * scale) == pytest.approx(err, rel=1e-12, abs=0)
    assert psnr(x * scale, xhat * scale, 2.0 * scale) == pytest.approx(quality, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", BLOCK_SHAPES)
@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_scores_of_tiny_finite_entries(shape, graded, scale):
    # entries below about 1e-154 square to subnormals or zero; the scores
    # must not notice
    x, xhat = _pair(shape, "mixed", seed=3)
    if graded:  # blocks whose magnitudes differ by 150 orders
        big = np.arange(x.size).reshape(x.shape) >= x.size // 2
        x = np.where(big, 1e150 * x, x)
        xhat = np.asfortranarray(np.where(big, 1e150 * xhat, xhat))
    err, quality = relative_error(x, xhat), psnr(x, xhat, 2.0)
    assert np.isfinite(err) and np.isfinite(quality)
    assert relative_error(x * scale, xhat * scale) == pytest.approx(err, rel=1e-12, abs=0)
    assert psnr(x * scale, xhat * scale, 2.0 * scale) == pytest.approx(quality, rel=1e-12, abs=0)
    # a peak of ordinary size over tiny entries: a finite PSNR, shifted by the scale
    assert psnr(x * scale, xhat * scale, 2.0) == pytest.approx(
        quality - 20.0 * math.log10(scale), rel=1e-12, abs=0
    )


@pytest.mark.parametrize("exponent, gap", [(-505, 1e-9), (-498, 1e-13)])
def test_scores_of_errors_that_square_below_tiny(exponent, gap):
    # x's squares stay normal while the differences' squares are subnormal
    # (2^-505, about 2e-152) or flush to zero (2^-498 with a gap of 1e-13);
    # a power of two scales every entry and difference exactly
    x = np.random.default_rng(0).standard_normal(1000)
    xhat = x + gap * np.random.default_rng(1).standard_normal(1000)
    scale = 2.0**exponent
    err, quality = relative_error(x, xhat), psnr(x, xhat, 2.0)
    assert relative_error(x * scale, xhat * scale) == pytest.approx(err, rel=1e-12, abs=0)
    assert psnr(x * scale, xhat * scale, 2.0 * scale) == pytest.approx(quality, rel=1e-12, abs=0)


# ------------------------------------------------------------- tail energies


def test_tail_energy_examples():
    sigma = np.array([3.0, 2.0, 1.0])
    assert tail_energy(sigma, 2) == pytest.approx(5.0)
    assert tail_energy(sigma, 1) == pytest.approx(14.0)
    assert tail_energy(sigma, 4) == 0.0
    with pytest.raises(ValueError):
        tail_energy(sigma, 0)
    with pytest.raises(ValueError):
        tail_energy(sigma, 5)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
def test_tail_energy_nonincreasing(values):
    sigma = np.sort(np.asarray(values))[::-1]
    tails = [tail_energy(sigma, j) for j in range(1, sigma.size + 2)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_mode_tail_delta_edges():
    # Delta_n at rank r is tail_energy(sigma_n, r + 1): zero at full rank,
    # ||X||^2 at rank 0, and no tail starts past sigma_n's end
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 6, 7))
    summary = spectrum_summary(x)
    assert [sigma.size for sigma in summary] == [5, 6, 7]
    for n in (1, 2, 3):
        sigma = summary[n - 1]
        assert tail_energy(sigma, x.shape[n - 1] + 1) <= 1e-20
        assert tail_energy(sigma, 1) == pytest.approx(frobenius_norm(x) ** 2, rel=1e-12)
        with pytest.raises(ValueError):
            tail_energy(sigma, x.shape[n - 1] + 2)


def test_mode_tail_delta_nonincreasing_in_rank():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 7, 8))
    summary = spectrum_summary(x)
    deltas = [tail_energy(summary[0], r + 1) for r in range(0, 7)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_mode_tail_delta_matches_projection_oracle():
    # tail energy beyond rank r equals the error of projecting one mode onto
    # its r leading left singular vectors
    x = hilbert_tensor((20, 20, 20))
    summary = spectrum_summary(x)
    r = 5
    for n in (1, 2, 3):
        u, _ = truncated_svd(unfold(x, n), r)
        proj = np.eye(20) - u @ u.T
        err_sq = frobenius_norm(mode_n_product(x, proj, n)) ** 2
        delta = tail_energy(summary[n - 1], r + 1)
        assert abs(err_sq - delta) <= 1e-10 * max(delta, 1e-30)


# ----------------------------------------------------------------- f_factor


def test_f_factor_values():
    assert f_factor(10, 22) == pytest.approx(10 / 11)
    assert f_factor(1, 3) == pytest.approx(1.0)
    for r in (2, 5, 17):
        assert f_factor(r, r + 2) == pytest.approx(float(r))
    assert f_factor(4, 5) == math.inf
    with pytest.raises(ValueError):
        f_factor(4, 4.5)


# ------------------------------------------------------------- bound oracle


def test_bound_zero_for_exact_rank_deterministic():
    x = random_tucker_tensor((12, 12, 12), (3, 3, 3), seed=4)
    cfg = ApproxConfig(target_ranks=(3, 3, 3))
    for variant in ("thosvd", "sthosvd"):
        report = bound_oracle(x, cfg, variant)
        assert report.total <= 1e-16 * frobenius_norm(x) ** 2


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
@pytest.mark.parametrize(
    "cfg",
    [ApproxConfig(target_ranks=(7, 3, 3)), ApproxConfig(target_ranks=(2, 2))],
    ids=["rank-above-dimension", "short-order"],
)
def test_bound_oracle_rejects_what_the_pipelines_reject(variant, cfg):
    x = hilbert_tensor((6, 7, 8))
    with pytest.raises(ValueError) as rejected:
        sthosvd(x, cfg)
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        bound_oracle(x, cfg, variant)


def test_bound_thosvd_equals_sthosvd():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 7, 8))
    cfg = ApproxConfig(target_ranks=(3, 4, 5))
    a = bound_oracle(x, cfg, "thosvd")
    b = bound_oracle(x, cfg, "sthosvd")
    assert a.total == b.total
    assert a.total == pytest.approx(sum(m.delta_sq for m in a.modes))


def test_bound_sketch_hand_computed():
    # Tropp's two-sided bound with k = r = 4, l = r + 2 = 6: the leading
    # factor is 1 + f(4, 6) = 5, and the split index rho in {1, 2} weighs
    # tau_2^2 by 1 + f(1, 4) = 3/2 and tau_3^2 by 1 + f(2, 4) = 3; on this
    # flat Gaussian spectrum the smaller product is at rho = 1
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 9, 10))
    r = 4
    cfg = ApproxConfig(target_ranks=(r, r, r), sketch_sizes=(r + 2,) * 3)
    report = bound_oracle(x, cfg, "sketch")
    summary = spectrum_summary(x)
    for n, mode in enumerate(report.modes, start=1):
        sigma = summary[n - 1]
        by_rho = {1: 1.5 * tail_energy(sigma, 2), 2: 3.0 * tail_energy(sigma, 3)}
        assert mode.chosen_rho == 1 == min(by_rho, key=by_rho.get)
        assert mode.term == pytest.approx(5.0 * by_rho[1], rel=1e-12)
        assert mode.delta_sq == pytest.approx(tail_energy(sigma, r + 1), rel=1e-12)


def test_bound_sketch_dominates_deterministic_at_default_sizes():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((9, 9, 9))
    for extra in (2, 3, 4):
        for r in (3, 5, 7):
            cfg = ApproxConfig(target_ranks=(r,) * 3, sketch_sizes=(r + extra,) * 3)
            det = bound_oracle(x, cfg, "thosvd")
            sk = bound_oracle(x, cfg, "sketch")
            for a, b in zip(sk.modes, det.modes):
                assert a.term >= b.term


def test_bound_sub_sketch_hand_computed():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((10, 10, 10))
    r, l, q = 5, 7, 2
    cfg = ApproxConfig(target_ranks=(r,) * 3, sketch_sizes=(l,) * 3, power_iters=q)
    report = bound_oracle(x, cfg, "sub_sketch")
    summary = spectrum_summary(x)
    for n, mode in enumerate(report.modes, start=1):
        sigma = summary[n - 1]
        gap = sigma[r] / sigma[r - 1]
        best = min(
            (1 + (rho / (r - rho - 1)) * gap ** (4 * q)) * tail_energy(sigma, rho + 1)
            for rho in range(1, r - 1)
        )
        assert mode.term == pytest.approx((1 + r / (l - r - 1)) * best, rel=1e-12)


def test_bound_sketch_factor_two_at_default_size():
    # l = 2r + 1 gives the leading factor 1 + f(r, 2r + 1) = 2, and "sketch"
    # is the sub-sketch formula with no damping, so never below it
    rng = np.random.default_rng(13)
    x = rng.standard_normal((12, 13, 14))
    r = 5
    cfg = ApproxConfig(target_ranks=(r,) * 3)
    sk = bound_oracle(x, cfg, "sketch")
    sub = bound_oracle(x, cfg, "sub_sketch")
    summary = spectrum_summary(x)
    for n, (a, b) in enumerate(zip(sk.modes, sub.modes), start=1):
        sigma = summary[n - 1]
        best = min(
            (1 + rho / (r - rho - 1)) * tail_energy(sigma, rho + 1)
            for rho in range(1, r - 1)
        )
        assert a.term == pytest.approx(2.0 * best, rel=1e-12)
        assert a.term >= b.term >= a.delta_sq


def test_bound_uses_the_sketch_size_each_mode_runs_with():
    # mode 1: l = 9 clamps to I_1 = 8; mode 3: r = I_3, truncated
    # deterministically, so its term is its (zero) tail energy
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 9, 6))
    cfg = ApproxConfig(target_ranks=(4, 4, 6))
    summary = spectrum_summary(x)
    for variant in ("sketch", "sub_sketch"):
        report = bound_oracle(x, cfg, variant)
        sigma = summary[0]
        damping = (sigma[4] / sigma[3]) ** 4 if variant == "sub_sketch" else 1.0
        best = min(
            (1 + (rho / (4 - rho - 1)) * damping) * tail_energy(sigma, rho + 1)
            for rho in (1, 2)
        )
        assert report.modes[0].term == pytest.approx((1 + 4 / (8 - 4 - 1)) * best, rel=1e-12)
        assert report.modes[2].chosen_rho is None
        assert report.modes[2].term == report.modes[2].delta_sq == 0.0


def test_bound_sketch_holds_monte_carlo():
    # mean squared error of the sketch pipeline over many seeds stays below
    # the expected-error bound at the default sketch sizes; at near-exact
    # rank the tail energy beyond r is tiny while the k = r range finder
    # still misses head energy, so a bound proportional to that tail fails
    x = random_tucker_tensor((10, 10, 10), (4, 4, 4), seed=15)
    x = x + 0.01 * np.random.default_rng(16).standard_normal(x.shape)
    cfg = ApproxConfig(target_ranks=(4, 4, 4))
    bound = bound_oracle(x, cfg, "sketch").total
    errs = [
        frobenius_norm(x - reconstruct(sketch_sthosvd(x, cfg, RngStream(seed)))) ** 2
        for seed in range(200)
    ]
    assert np.mean(errs) <= bound


def test_bound_sub_sketch_nonincreasing_in_q():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 11, 12))
    totals = []
    for q in (1, 2, 3):
        cfg = ApproxConfig(target_ranks=(5, 5, 5), power_iters=q)
        totals.append(bound_oracle(x, cfg, "sub_sketch").total)
    assert totals[0] >= totals[1] >= totals[2]


def test_bound_empty_split_domain_is_infinite():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 6, 6))
    cfg = ApproxConfig(target_ranks=(2, 2, 2), sketch_sizes=(4, 4, 4))
    # the minimum over the empty split domain is +inf, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = bound_oracle(x, cfg, "sketch")
    assert all(m.term == math.inf and m.chosen_rho is None for m in report.modes)
    assert report.total == math.inf


def test_bound_of_a_mode_too_short_to_sketch_is_its_tail():
    # I_1 = r_1 + 1 leaves no sketch size with l >= r + 2, so the pipelines
    # truncate mode 1 by the SVD and its term is the finite Delta_1
    x = np.random.default_rng(12).standard_normal((5, 8, 8))
    cfg = ApproxConfig(target_ranks=(4, 4, 4))
    delta = tail_energy(spectrum_summary(x)[0], 4 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("sketch", "sub_sketch"):
            report = bound_oracle(x, cfg, variant)
            first = report.modes[0]
            assert first.chosen_rho is None
            assert first.term == first.delta_sq == delta > 0.0
            assert all(mode.chosen_rho is not None for mode in report.modes[1:])
            assert math.isfinite(report.total)


def test_bound_report_total_is_mode_sum():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((7, 7, 7))
    cfg = ApproxConfig(target_ranks=(4, 4, 4))
    report = bound_oracle(x, cfg, "sketch")
    assert report.total == pytest.approx(sum(m.term for m in report.modes))


def test_bound_unknown_variant():
    with pytest.raises(ValueError):
        bound_oracle(np.ones((2, 2)), ApproxConfig(target_ranks=(1, 1)), "nope")


def test_singular_gap_zero_conventions(monkeypatch):
    import tucksketch.metrics as metrics

    # the gap g = sigma_{r+1} / sigma_r is 0 when sigma_{r+1} = 0 (mode 1),
    # when sigma_r = 0 (mode 2, where the ratio would be 0/0) and at
    # r = len(sigma) (mode 3). At r = 3 and l = 5 (2r + 1 clamped to I_n)
    # the only split index is rho = 1, so with g = 0 each sub-Sketch term is
    # (1 + f(3, 5)) * (1 + f(1, 3) * 0) * tau_2^2 = 4 * tau_2^2, a Python
    # float; Sketch has no damping and gives (1 + 3) * (1 + 1) * tau_2^2
    spectra = [
        np.array([3.0, 2.0, 1.0, 0.0]),
        np.array([3.0, 2.0, 0.0, 0.0]),
        np.array([3.0, 2.0, 1.0]),
    ]
    monkeypatch.setattr(metrics, "spectrum_summary", lambda x: spectra)
    x = np.zeros((5, 5, 5))
    cfg = ApproxConfig(target_ranks=(3, 3, 3))
    sub = bound_oracle(x, cfg, "sub_sketch")
    sk = bound_oracle(x, cfg, "sketch")
    for tau2_sq, a, b in zip((5.0, 4.0, 5.0), sub.modes, sk.modes):
        assert type(a.term) is float and a.term == 4.0 * tau2_sq
        assert b.term == 8.0 * tau2_sq
        assert a.chosen_rho == b.chosen_rho == 1


def test_bound_sketch_collapses_for_exact_rank():
    # an exactly rank-3 tensor at target rank 4 has a numerically zero
    # rank-4 tail, but neither sketch bound collapses with it: both minimize
    # over tails at split indices below r - 1, which still contain genuine
    # head energy, and their factors are at least 1
    x = random_tucker_tensor((10, 10, 10), (3, 3, 3), seed=12)
    cfg = ApproxConfig(target_ranks=(4, 4, 4), sketch_sizes=(6, 6, 6))
    summary = spectrum_summary(x)
    for variant in ("sketch", "sub_sketch"):
        report = bound_oracle(x, cfg, variant)
        for n, mode in enumerate(report.modes, start=1):
            assert mode.delta_sq <= 1e-25 * frobenius_norm(x) ** 2
            floor = min(tail_energy(summary[n - 1], 3), tail_energy(summary[n - 1], 2))
            assert mode.term >= floor > 0.0

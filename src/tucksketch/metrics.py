"""Quality measures and executable expected-error bounds.

The bound computations need the full singular spectrum of every mode
unfolding, so they are desk-scale testing utilities, not production paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import ApproxConfig
from .tensor import unfold

__all__ = [
    "SpectrumSummary",
    "spectrum_summary",
    "BoundReport",
    "ModeBound",
    "relative_error",
    "psnr",
    "tail_energy",
    "mode_tail_delta",
    "f_factor",
    "bound_oracle",
    "BOUND_VARIANTS",
]

BOUND_VARIANTS = ("thosvd", "sthosvd", "sketch", "sub_sketch")


@dataclass
class SpectrumSummary:
    """Full singular values of every mode unfolding, each sorted nonincreasing."""

    per_mode: list[np.ndarray]

    def mode(self, n: int) -> np.ndarray:
        if not 1 <= n <= len(self.per_mode):
            raise ValueError(f"mode {n} out of range")
        return self.per_mode[n - 1]


def spectrum_summary(x: np.ndarray) -> SpectrumSummary:
    """Dense SVD of each unfolding; the reference spectrum for all bounds."""
    return SpectrumSummary(
        [scipy.linalg.svdvals(unfold(x, n)) for n in range(1, x.ndim + 1)]
    )


# Elements per block of the fused scoring pass: the float64 work buffer
# (256 KiB) stays in cache while each block is squared and summed.
_BLOCK = 1 << 15
_TINY = np.finfo(np.float64).tiny


def _sum_squares(
    x: np.ndarray, xhat: np.ndarray, scaled: bool = False
) -> tuple[float, float, float]:
    """(s, sum of (x/s)**2, sum of ((x - xhat)/s)**2) in float64, in one blocked read.

    The iterator walks both operands in their common memory order and
    gathers or casts at most one block of each at a time, so mixed layouts,
    strided views and integer inputs never cost a full-size copy. Each block
    is reduced by NumPy's pairwise sum and the block sums are added exactly
    by math.fsum, so the result depends only on the values and their layout.

    s is 1.0 unless a plain sum of squares is not finite (entries above
    about 1e154) or the plain sum of x's squares is below the smallest normal
    double (entries below about 1e-154, whose squares lose digits or flush to
    zero). Then the pass is redone with each block j divided by its largest
    magnitude s_j, as LAPACK's dnrm2 scales, and adding (s_j / s)**2 times
    its sums, where s is the largest s_j. So inputs of ordinary size cost
    nothing extra, a zero x costs a second pass with the same result, and a
    non-finite entry still gives a non-finite sum.
    """
    it = np.nditer(
        [x, xhat],
        flags=["buffered", "external_loop", "zerosize_ok"],
        op_flags=[["readonly"], ["readonly"]],
        op_dtypes=[np.float64, np.float64],
        casting="safe",
        buffersize=_BLOCK,
    )
    buf = np.empty(min(_BLOCK, x.size))
    parts: list[tuple[float, float, float]] = []
    with it, np.errstate(over="ignore"):
        for a, b in it:
            s = 1.0
            if scaled:
                peak = float(np.maximum(np.abs(a).max(), np.abs(b).max()))
                if 0.0 < peak < math.inf:
                    s, a, b = peak, a / peak, b / peak
            d = buf[: a.size]
            np.square(a, out=d)
            ref_part = float(np.sum(d))
            np.subtract(a, b, out=d)
            np.square(d, out=d)
            parts.append((s, ref_part, float(np.sum(d))))
    scale = max((s for s, _, _ in parts), default=1.0)
    try:
        ref = math.fsum(r * (s / scale) ** 2 for s, r, _ in parts)
        err = math.fsum(e * (s / scale) ** 2 for s, _, e in parts)
    except OverflowError:  # finite block sums whose total overflows
        ref = err = math.inf
    if scaled or (math.isfinite(ref) and math.isfinite(err) and ref >= _TINY):
        return scale, ref, err
    return _sum_squares(x, xhat, scaled=True)


def relative_error(x: np.ndarray, xhat: np.ndarray) -> float:
    """Frobenius-norm error of xhat relative to x.

    Both norms come from one blocked pass of pairwise float64 sums (integer
    inputs are converted, never wrapped); entries too large or too small to
    square are scaled block by block. The result is deterministic for a
    given input layout but may differ in the last bits from a ratio of
    sorted-sum `frobenius_norm` values, which alone is bitwise invariant
    under rearranging the entries. A zero x gives 0.0 when xhat is zero too
    (an exact reconstruction, as `psnr` gives +inf) and raises otherwise.
    """
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    _, ref_sq, err_sq = _sum_squares(x, xhat)
    if ref_sq == 0.0:
        if err_sq == 0.0:
            return 0.0
        raise ValueError("relative error is undefined for a zero reference tensor")
    return math.sqrt(err_sq) / math.sqrt(ref_sq)


def psnr(x: np.ndarray, xhat: np.ndarray, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the inputs are identical.

    The mean squared error uses the same blocked pairwise float64 sums as
    `relative_error`: deterministic for a given input layout, and possibly
    different in the last bits from one computed with `frobenius_norm`.
    """
    if peak <= 0:
        raise ValueError("peak must be positive")
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    scale, _, err_sq = _sum_squares(x, xhat)
    mse = err_sq / x.size  # in units of scale**2, as is peak / scale
    if mse == 0.0:
        return math.inf
    # in logarithms: peak**2, or peak / scale for tiny entries, can leave the
    # float range
    return 20.0 * (math.log10(peak) - math.log10(scale)) - 10.0 * math.log10(mse)


def tail_energy(sigma: np.ndarray, j: int) -> float:
    """Sum of squared singular values from position j on (1-based).

    Equals the squared Frobenius error of the best rank-(j-1) approximation.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 1 <= j <= sigma.size + 1:
        raise ValueError(f"tail index {j} out of range for {sigma.size} values")
    return float(np.sum(sigma[j - 1 :] ** 2))


def mode_tail_delta(summary: SpectrumSummary, n: int, r: int) -> float:
    """Mode-n tail energy beyond rank r: sum of sigma_i^2 for i > r."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    sigma = summary.mode(n)
    return tail_energy(sigma, min(r, sigma.size) + 1)


def f_factor(s: float, t: float) -> float:
    """s / (t - s - 1); +inf at t == s + 1 where the bound turns vacuous."""
    if t < s + 1:
        raise ValueError(f"f({s}, {t}) requires t >= s + 1")
    if t == s + 1:
        return math.inf
    return s / (t - s - 1)


def _singular_gap(sigma: np.ndarray, r: int) -> float:
    """sigma_{r+1} / sigma_r, with 0 when either value vanishes."""
    lead = sigma[r - 1] if r <= sigma.size else 0.0
    trail = sigma[r] if r < sigma.size else 0.0
    if lead == 0.0:
        return 0.0
    return float(trail / lead)


@dataclass
class ModeBound:
    """One mode's contribution to an expected-error bound."""

    delta_sq: float
    chosen_rho: int | None
    term: float


@dataclass
class BoundReport:
    """Per-mode bound terms; the bound itself is their sum."""

    modes: list[ModeBound]

    @property
    def total(self) -> float:
        return sum(m.term for m in self.modes)


def _finite_product(*factors: float) -> float:
    """Product that treats any infinite factor as dominating (inf, never nan)."""
    if any(math.isinf(f) for f in factors):
        return math.inf
    return math.prod(factors)


def bound_oracle(x: np.ndarray, cfg: ApproxConfig, variant: str) -> BoundReport:
    """Expected squared-error bound for the chosen pipeline on this tensor.

    The deterministic variants bound the squared error by the sum of mode
    tail energies Delta_n. The sketch variants use the two-sided sketch
    bound of Tropp, Yurtsever, Udell and Cevher (SIMAX 2017, Thm 4.3) with
    k = r_n, per mode

        (1 + f(r_n, l_n)) * min_rho (1 + f(rho, r_n) * g^(4q)) * tau_{rho+1}^2,

    where tau_j^2 is the tail energy from sigma_j on, g = sigma_{r+1}/sigma_r
    is the singular gap and q the power iteration count; "sketch" is q = 0,
    so its damping is 1. l_n is the size the pipeline runs with, clamped to
    I_n, and a mode the pipeline truncates deterministically gets Delta_n:
    both come from `ApproxConfig.plan`, which also rejects the ranks and
    orders that the pipelines reject. The minimum over the split index rho
    (1 <= rho < r_n - 1) is evaluated exhaustively, and an empty domain
    (r_n <= 2) makes the mode term +inf.

    The theorem is proved for Gaussian test matrices. The sketch kernels
    keep Psi Gaussian but draw Omega as random signs (``RngStream.signs``),
    so for them this bound is an empirical check, not a theorem: on the
    acceptance suite's Monte Carlo test (criterion 4) the measured mean
    squared error is 4.76 against a bound of 21.3.
    """
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    kernel = "sketch" if variant in ("sketch", "sub_sketch") else "svd"
    plan = sorted(cfg.plan(x.shape, kernel), key=lambda step: step.mode)
    summary = spectrum_summary(x)
    power_iters = cfg.power_iters if variant == "sub_sketch" else 0
    modes: list[ModeBound] = []
    for step in plan:
        n, r, l = step.mode, step.rank, step.l
        delta_sq = mode_tail_delta(summary, n, r)
        if step.kernel == "svd":
            modes.append(ModeBound(delta_sq, None, delta_sq))
            continue
        rho_domain = range(1, r - 1)
        if len(rho_domain) == 0:
            warnings.warn(
                f"mode {n}: no admissible split index for rank {r} <= 2; "
                "bound term is +inf",
                RuntimeWarning,
            )
            modes.append(ModeBound(delta_sq, None, math.inf))
            continue
        sigma = summary.mode(n)
        damping = _singular_gap(sigma, r) ** (4 * power_iters)
        best_rho, best = None, math.inf
        for rho in rho_domain:
            cand = _finite_product(
                1.0 + f_factor(rho, r) * damping, tail_energy(sigma, rho + 1)
            )
            if cand < best:
                best_rho, best = rho, cand
        term = _finite_product(1.0 + f_factor(r, l), best)
        modes.append(ModeBound(delta_sq, best_rho, term))
    return BoundReport(modes)

"""Quality measures and executable expected-error bounds.

The bound computations need the full singular spectrum of every mode
unfolding, so they are desk-scale testing utilities, not production paths.
`spectrum_summary` returns those spectra as a plain list of arrays, mode 1
first, and `tail_energy` reads tails off one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import ApproxConfig
from .tensor import unfold

__all__ = [
    "spectrum_summary",
    "BoundReport",
    "ModeBound",
    "relative_error",
    "psnr",
    "tail_energy",
    "bound_oracle",
    "BOUND_VARIANTS",
]

BOUND_VARIANTS = ("thosvd", "sthosvd", "sketch", "sub_sketch")


def spectrum_summary(x: np.ndarray) -> list[np.ndarray]:
    """Singular values of each mode unfolding, mode 1 first, each nonincreasing.

    A dense SVD per unfolding: the reference spectrum for all bounds.
    """
    return [scipy.linalg.svdvals(unfold(x, n)) for n in range(1, x.ndim + 1)]


# Elements per block of the fused scoring pass: the float64 work buffer
# (256 KiB) stays in cache while each block's difference is formed and summed.
_BLOCK = 1 << 15
_TINY = np.finfo(np.float64).tiny
# An error sum below _TINY is redone scaled when the reference sum is below
# this: above it, the true relative error is under sqrt(size + 1) * eps
# whatever the squares that underflowed.
_UNDERFLOW_REF = _TINY / np.finfo(np.float64).eps ** 2


def _sum_squares(
    x: np.ndarray, xhat: np.ndarray, scaled: bool = False
) -> tuple[float, float, float]:
    """(s, sum of (x/s)**2, sum of ((x - xhat)/s)**2) in float64, in one blocked read.

    The iterator walks both operands in their common memory order and
    gathers or casts at most one block of each at a time, so mixed layouts,
    strided views and integer inputs never cost a full-size copy. Each of a
    block's two sums is one BLAS dot, of the block with itself and of its
    difference with itself, and the block sums are added exactly by
    math.fsum, so the result depends only on the values, their layout and
    the BLAS library and its thread count (a threaded dot splits a block).

    s is 1.0 unless a plain sum of squares is not finite (entries above
    about 1e154), or the plain sum of x's squares is below the smallest
    normal double (entries below about 1e-154, whose squares lose digits or
    flush to zero), or the error's sum is below it while x's sum is below
    tiny / eps**2 (``_UNDERFLOW_REF``, about 4.5e-277), so that nonzero
    differences may have squared to subnormals or to zero. Then the pass is
    redone with each block j divided by the power of two s_j at or below its
    largest magnitude, as LAPACK's dnrm2 scales, and adding (s_j / s)**2
    times its sums, where s is the largest s_j. So inputs of ordinary size
    cost nothing extra, a zero x, or an exact match of a small one, costs a
    second pass with the same result, and a non-finite entry still gives a
    non-finite sum. Both operands must have the same shape: the iterator
    would otherwise broadcast one against the other.
    """
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
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
                    # a power of two, so a / s and b / s, and their
                    # difference, are exact
                    s = math.ldexp(1.0, math.frexp(peak)[1] - 1)
                    a, b = a / s, b / s
            d = np.subtract(a, b, out=buf[: a.size])
            parts.append((s, float(np.dot(a, a)), float(np.dot(d, d))))
    scale = max((s for s, _, _ in parts), default=1.0)
    try:
        ref = math.fsum(r * (s / scale) ** 2 for s, r, _ in parts)
        err = math.fsum(e * (s / scale) ** 2 for s, _, e in parts)
    except OverflowError:  # finite block sums whose total overflows
        ref = err = math.inf
    normal = math.isfinite(ref) and math.isfinite(err) and ref >= _TINY
    if scaled or (normal and (err >= _TINY or ref >= _UNDERFLOW_REF)):
        return scale, ref, err
    return _sum_squares(x, xhat, scaled=True)


def relative_error(x: np.ndarray, xhat: np.ndarray) -> float:
    """Frobenius-norm error of xhat relative to x.

    Both norms come from the blocked float64 sums of `_sum_squares`, which
    also rejects a shape mismatch. The result may differ in the last bits
    from a ratio of sorted-sum `frobenius_norm` values, which alone is
    bitwise invariant under rearranging the entries. A zero x gives 0.0 when
    xhat is zero too (an exact reconstruction, as `psnr` gives +inf) and
    raises otherwise.
    """
    _, ref_sq, err_sq = _sum_squares(x, xhat)
    if ref_sq == 0.0:
        if err_sq == 0.0:
            return 0.0
        raise ValueError("relative error is undefined for a zero reference tensor")
    return math.sqrt(err_sq) / math.sqrt(ref_sq)


def psnr(x: np.ndarray, xhat: np.ndarray, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the error is zero (identical or empty inputs).

    The mean squared error comes from the blocked float64 sums of
    `_sum_squares`, as in `relative_error`, and may differ in the last bits
    from one computed with `frobenius_norm`.
    """
    if not 0 < peak < math.inf:
        raise ValueError(f"peak must be positive and finite, got {peak!r}")
    scale, _, err_sq = _sum_squares(x, xhat)  # err_sq in units of scale**2, as is peak / scale
    if err_sq == 0.0:  # also an empty pair, whose mean has no entries
        return math.inf
    # in logarithms: peak**2, peak / scale for tiny entries, and the mean
    # squared error err_sq / x.size of a subnormal err_sq can leave the
    # float range
    return 20.0 * (math.log10(peak) - math.log10(scale)) - 10.0 * (math.log10(err_sq) - math.log10(x.size))


def tail_energy(sigma: np.ndarray, j: int) -> float:
    """Sum of squared singular values from position j on (1-based).

    Equals the squared Frobenius error of the best rank-(j-1) approximation.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 1 <= j <= sigma.size + 1:
        raise ValueError(f"tail index {j} out of range for {sigma.size} values")
    return float(np.sum(sigma[j - 1 :] ** 2))


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


def bound_oracle(x: np.ndarray, cfg: ApproxConfig, variant: str) -> BoundReport:
    """Expected squared-error bound for the chosen pipeline on this tensor.

    The deterministic variants bound the squared error by the sum of mode
    tail energies Delta_n. The sketch variants use the two-sided sketch
    bound of Tropp, Yurtsever, Udell and Cevher (SIMAX 2017, Thm 4.3) with
    k = r_n, per mode

        (1 + f(r_n, l_n)) * min_rho (1 + f(rho, r_n) * g^(4q)) * tau_{rho+1}^2,

    where f(s, t) = s / (t - s - 1), sigma is the mode's spectrum,
    ``spectrum_summary(x)[n - 1]``, tau_j^2 = ``tail_energy(sigma, j)`` is
    the tail energy from sigma_j on (so Delta_n = tau_{r_n+1}^2),
    g = sigma_{r+1}/sigma_r is the singular gap, 0 when either vanishes or
    r_n = len(sigma), and q the power iteration count; "sketch" is q = 0, so
    its damping is 1. l_n is the size the pipeline runs with, clamped to
    I_n, from `ApproxConfig.plan`, which also rejects the ranks that the
    pipelines reject, and which gives a mode no l_n where l_n >= r_n + 2
    does not fit. Such a mode, which the sketch pipelines truncate
    deterministically, gets Delta_n. The minimum over the split index rho
    (1 <= rho < r_n - 1) is evaluated exhaustively. With l_n >= r_n + 2 and
    rho <= r_n - 2 both denominators of f are at least 1, so every factor is
    finite. When r_n <= 2 the domain is empty, and the minimum is +inf by
    ``min``'s default, so the mode term is +inf and ``chosen_rho`` None,
    with no warning.

    The theorem is proved for Gaussian test matrices. The sketch kernels
    draw Omega and Psi by one rule, random signs (``RngStream.signs``) on
    unfoldings of 64 or more columns for Omega and 64 or more rows for Psi,
    Gaussian below, so for them this bound is an empirical check, not a
    theorem: on the acceptance suite's Monte Carlo test (criterion 4) the
    measured mean squared error is 4.58 against a bound of 21.3.
    """
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    plan = sorted(cfg.plan(x.shape), key=lambda step: step.mode)
    spectra = spectrum_summary(x)
    power_iters = cfg.power_iters if variant == "sub_sketch" else 0
    modes: list[ModeBound] = []
    for step in plan:
        n, r, l = step.mode, step.rank, step.l
        sigma = spectra[n - 1]
        delta_sq = tail_energy(sigma, r + 1)
        if variant in ("thosvd", "sthosvd") or l is None:
            modes.append(ModeBound(delta_sq, None, delta_sq))
            continue
        # a Python float, so that every term is one; sigma_r exists by the
        # rank rule, and sigma_{r+1} is 0 past the end
        gap = float(sigma[r] / sigma[r - 1]) if r < sigma.size and sigma[r - 1] != 0.0 else 0.0
        damping = gap ** (4 * power_iters)
        # the first rho of the smallest product; +inf and no rho when r <= 2
        best, best_rho = min(
            (((1.0 + rho / (r - rho - 1) * damping) * tail_energy(sigma, rho + 1), rho) for rho in range(1, r - 1)),
            default=(math.inf, None),
        )
        term = (1.0 + r / (l - r - 1)) * best
        modes.append(ModeBound(delta_sq, best_rho, term))
    return BoundReport(modes)

"""Matrix kernels: thin QR/SVD, truncated SVD, and randomized low-rank schemes.

The deterministic factorizations are thin wrappers over LAPACK with one
layout rule. LAPACK factors the tall orientation: a wide matrix (m < n) is
factored as its transpose, which is a view, and the factors are swapped
back. Every product or triangular solve that touches the long side of a
matrix reads it in its stored layout, through a transposed view rather than
a full-size copy.

Every Householder QR here runs through ``_householder``, a blocked
``dgeqrt`` in Level-3 panels of ``_QR_BLOCK`` columns: ``thin_qr`` applies
its reflectors to the identity with ``dgemqrt`` to form Q, and the R-only QR
route of ``_left_factor`` reads R off its upper triangle. On one BLAS
thread this took THOSVD on a Hilbert 100^3 tensor, whose three unfoldings
all take that route, from 173 to 78 ms.

Every rank-r kernel returns one plain pair (U, C) with A ~= U @ C and U of
orthonormal columns: ``truncated_svd`` and ``rsvd`` give C = diag(s) @ V^T
(``rsvd`` up to rounding, as U^T A), ``sketch`` and ``sub_sketch`` give the
correction X_c. ``thin_svd`` returns NumPy's (u, s, vt). No kernel fixes
signs; ``_canonical_signs`` does, for THOSVD's factors here and for every
step of ``tucker._sequential``.

Short, wide stages take the Gram route of Vannieuwenhoven, Vandebril and
Meerbergen (SISC 2012): ``eigh`` of the small Gram matrix B B^T instead of
a Householder factorization of the long B^T, when lambda_r > sqrt(eps)
lambda_1 (``_GRAM_GUARD``, checked by ``_gram_eigh`` on the eigenvalues it
just computed). Above that guard the rounding of the Gram matrix, about
eps lambda_1, stays below sqrt(eps) lambda_r; a guard of 100 eps let the
Hilbert 100^3 unfoldings through (lambda_r / lambda_1 = 6e-14) and moved
THOSVD's error by 4e-5 relative. ``_left_factor`` takes from it the r
leading left singular vectors of a wide matrix, without forming V, or else
an R-only QR of A^T and the SVD of the small triangle. Its columns carry the
canonical sign (largest-magnitude entry positive), so both routes and any
LAPACK build give the same factor up to rounding. THOSVD takes each factor
from it, and ``rsvd`` the SVD of its projection.

The power step of ``sub_sketch`` checks the same guard on B = Q^T A, and on
the Gram route it forms no basis of range(B^T) at all. The Householder route
factors B^T = Q_b R_b and takes the QR of A Q_b = (A B^T) R_b^(-1). A
Householder QR gives the same Q for M and M T, T invertible upper
triangular, signs included: a column's reflector does not change when the
column is scaled by any nonzero number or has earlier columns added to it.
So the Q of A B^T is that Q up to rounding, and when B B^T passes the guard
the step is the QR of A B^T; otherwise it is the QR of A Q_b, with Q_b
formed in full. The guard keeps the condition number of A B^T below about
sqrt(eps)^-1. On 80 x 300 matrices with k = 6 and sigma_1 / sigma_6 from 10
to 8000 (at 8000, lambda_6 / lambda_1 is 1.6e-8, just above the guard),
over 5 seeds and 1 or 2 rounds, Q stayed within 5e-12 of the Householder
route's, and the residuals ||A - Q Q^T A|| agreed to 2e-18 ||A||.

So a randomized mode costs its GEMMs over A plus factorizations of k x k
matrices; on a separated spectrum no n x k matrix is factored. STHOSVD stays
on ``truncated_svd``; the README says why.

The randomized kernels are the interesting part:

* rsvd          -- range finder Q of A @ Omega, then the leading left
                   singular vectors of the projection Q^T A.
* sketch        -- two-sided sketch: the basis Q of a column sketch
                   Y = A @ Omega and the correction X_c = (Psi Q)^+ Psi A,
                   taken as the k-row product ((Psi Q)^+ Psi) @ A, so the
                   l-row sketch W = Psi @ A is never formed.
* sub_sketch    -- same, but the basis Q is sharpened by alternating
                   applications of A and A.T with re-orthonormalization in
                   between (subspace power iteration).

On unfoldings of 64 or more columns the column test matrix Omega is a
matrix of random signs drawn from raw Philox bits (``RngStream.signs``),
the standard drop-in for a Gaussian one (Halko, Martinsson and Tropp, SIAM
Review 2011, section 4.6; Martinsson and Tropp, Acta Numerica 2020): 64
entries per raw word instead of one Box-Muller normal each. Below 64
columns Omega is Gaussian, because a sign matrix with few rows is often
rank-deficient. ``rsvd`` and the sketches take their range basis from one
helper, ``_range_basis``, which makes that choice and draws no Omega when
it would be square (k equals the column count, which ``ApproxConfig.plan``'s
clamp produces on small modes).
The row test matrix Psi of the sketches stays Gaussian, with its rows
replaced by the orthonormal Q^T of a Householder QR (``thin_qr``) of its
transpose. The expected-error bound that ``metrics.bound_oracle`` evaluates
is a theorem for Gaussian test matrices; for the sign Omega it is an
empirical check (the acceptance suite's Monte Carlo test measures a mean
squared error of 4.76 against a bound of 21.3).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgemqrt, dgeqrt

from .rng import RngStream

__all__ = [
    "thin_qr",
    "thin_svd",
    "truncated_svd",
    "rsvd",
    "sketch",
    "sub_sketch",
]


# Panel width of ``_householder``. On one BLAS thread 16 was fastest or
# tied among 8, 16, 32 and 64 on the shapes the pipelines factor (10000 x 100
# down to 100 x 21); every width ran 10000 x 100 in a quarter of dgeqrf's time.
_QR_BLOCK = 16


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a nonempty a in LAPACK's compact WY form, as (v, t).

    R is the upper triangle of v and the reflectors lie below its diagonal;
    t holds the triangular factors of the blocked reflectors, which
    ``dgemqrt`` applies. ``dgeqrt`` factors panels of ``_QR_BLOCK`` columns
    recursively in Level-3 BLAS (Elmroth and Gustavson, IBM J. Res. Dev.
    2000), while ``dgeqrf`` takes unblocked Level-2 steps below 128 columns,
    each of which streams the whole trailing matrix: on one BLAS thread the R
    of a 10000 x 100 matrix took 10.6 ms against 50.7 ms. a is copied, never
    overwritten.
    """
    v, t, _ = dgeqrt(min(_QR_BLOCK, *a.shape), a)
    return v, t


def thin_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy-size QR: a = q @ r with q of shape (m, min(m, n)).

    Blocked Householder QR (``_householder``), with q formed by applying the
    reflectors to the leading min(m, n) columns of the identity; r is exactly
    upper triangular. Callers factor tall matrices: the power step's fallback
    hands it (q.T @ a).T, a transposed view of a product that read a in its
    stored layout.
    """
    m, n = a.shape
    k = min(m, n)
    if k == 0:
        return np.zeros((m, 0)), np.zeros((0, n))
    v, t = _householder(a)
    q, _ = dgemqrt(v[:, :k], t, np.eye(m, k, order="F"), overwrite_c=1)
    return q, np.triu(v[:k])


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD a = u @ diag(s) @ vt, returned as NumPy's (u, s, vt).

    A wide a is factored as a.T with u and vt swapped back: LAPACK's divide
    and conquer SVD is faster on the tall orientation of the same matrix.
    """
    if a.shape[0] < a.shape[1]:
        v, s, ut = np.linalg.svd(a.T, full_matrices=False)
        return ut.T, s, v.T
    return np.linalg.svd(a, full_matrices=False)


def _canonical_signs(u: np.ndarray, c: np.ndarray | None = None):
    """u with each column flipped so that its entry of largest magnitude is positive.

    Given c, the rows of c that match flipped columns are negated in place
    (callers pass a kernel's freshly made c, which may be large), and the
    pair (u, c) is returned with u @ c unchanged. This is the sign rule of
    Bro, Acar and Kolda (J. Chemometrics 2008).
    """
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    flip = peak < 0
    u = u * np.where(flip, -1.0, 1.0)
    if c is None:
        return u
    # Row by row, not through a boolean index (a gather and a scatter of
    # the flipped rows), and by a multiply: on an AVX-512 x86-64 CPU, NumPy
    # 2.4.6's in-place np.negative wrote wrong values through a 64-byte
    # stride, which is a row of an F-ordered c with 8 rows.
    for i in np.flatnonzero(flip):
        c[i] *= -1.0
    return u, c


# The Gram route runs only when lambda_r > _GRAM_GUARD * lambda_1 and
# lambda_r > _GRAM_FLOOR.
_GRAM_GUARD = np.sqrt(np.finfo(np.float64).eps)
_GRAM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _gram_eigh(a: np.ndarray, r: int) -> np.ndarray | None:
    """The r leading eigenvectors of a @ a.T, in descending order, or None below the guard.

    ``a @ a.T`` is one BLAS syrk that reads a in its stored layout. When
    lambda_r <= sqrt(eps) lambda_1 (``_GRAM_GUARD``) the rounding of the Gram
    matrix reaches the kept eigenvalues, and a factor built from them would
    lose digits. A Gram matrix that overflows (entries of a finite a above
    about 1e154) is also None, and so is one whose lambda_r is at most
    tiny / eps (``_GRAM_FLOOR``, about 1e-292), where the products that
    form it are subnormal and carry fewer digits than eps promises (a
    6 x 56 Gaussian scaled by 1e-160 got a factor off by 2e-4). Then the
    caller takes its QR route, which scales its norms. The eigenvalues only
    decide the guard; no caller reads them.
    """
    m = a.shape[0]
    with np.errstate(over="ignore"):
        gram = a @ a.T
    if not np.isfinite(gram).all():
        return None
    w, v = scipy.linalg.eigh(
        gram, subset_by_index=(m - r, m - 1), overwrite_a=True, check_finite=False
    )
    if not w[0] > max(_GRAM_GUARD * w[-1], _GRAM_FLOOR):
        return None
    return v[:, ::-1]


def _qr_left_factor(a: np.ndarray, r: int) -> np.ndarray:
    """Leading r left singular vectors of a wide a from an R-only QR of a.T.

    With a.T = Q R, a = R.T Q.T, so U(a) is the right singular vectors of the
    m x m triangle R, read from the top of ``_householder``'s output; Q is
    never formed.
    """
    v, _ = _householder(a.T)
    return np.linalg.svd(np.triu(v[: a.shape[0]]))[2][:r].T


def _left_factor(a: np.ndarray, r: int) -> np.ndarray:
    """The r leading left singular vectors of a, as orthonormal columns with canonical signs.

    A wide a (m <= n) takes the Gram route when its spectrum allows and the
    R-only QR route otherwise; neither forms the n x r right factor. A tall
    a keeps the u of ``truncated_svd(a, r)``, which requires r <= n.
    """
    m, n = a.shape
    if not 1 <= r <= m:
        raise ValueError(f"rank {r} out of range for {m} rows")
    if m > n:
        return _canonical_signs(truncated_svd(a, r)[0])
    v = _gram_eigh(a, r)
    return _canonical_signs(v if v is not None else _qr_left_factor(a, r))


def truncated_svd(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r singular triplets of a, as the pair (u, c) with c = diag(s) @ vt.

    Requires 1 <= r <= min(m, n). The pipelines meet it by the rank rule of
    `ApproxConfig` (r_n at most the product of the other ranks, so at most
    the column count of every unfolding they factor).
    """
    if not 1 <= r <= min(a.shape):
        raise ValueError(f"rank {r} out of range for a {a.shape[0]} x {a.shape[1]} matrix")
    u, s, vt = thin_svd(a)
    return u[:, :r], s[:r, None] * vt[:r]


# Below this many columns, Omega is Gaussian instead of random signs.
_SIGN_MIN_COLS = 64


def _range_basis(a: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """Orthonormal basis Q of range(a @ Omega) for a k-column random Omega.

    Omega is used raw: orthonormalizing it would not change the range. When
    k equals the column count n, Q is taken from a itself and no Omega is
    drawn: any invertible Omega leaves range(a @ Omega) = range(a). Below
    ``_SIGN_MIN_COLS`` columns Omega is Gaussian, and random signs from 64
    columns on. A sign matrix with few rows is often rank-deficient (two
    columns of a 4 x 2 one are parallel with probability 1/8, and 66% of all
    4 x 4 sign matrices are singular), and Q's missing directions are then
    set by rounding, which moves the model when the input is rescaled; a
    square sign matrix of order 64 or more is singular with probability
    near eps.
    """
    n = a.shape[1]
    draw = rng.signs if n >= _SIGN_MIN_COLS else rng.normal
    return thin_qr(a if k == n else a @ draw(n, k))[0]


def rsvd(a: np.ndarray, r: int, p: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Randomized rank-r SVD with oversampling p, as the pair (u, diag(s) @ vt).

    Projects a onto the range Q of a @ Omega for a random Omega with
    k = r + p columns (Halko, Martinsson and Tropp, SIAM Review 2011), then
    takes the r leading left singular vectors U_b of the short, wide k x n
    projection B = Q^T a from ``_left_factor``: ``eigh`` of the k x k Gram
    matrix B B^T, or an R-only QR of B^T when the spectrum fails the guard.
    Neither forms the n x k right factor. The pair is (Q U_b, U_b^T B), whose
    C = U_b^T B equals diag(s) @ vt up to rounding.
    """
    m, n = a.shape
    if r < 1:
        raise ValueError("rank must be at least 1")
    if p < 0:
        raise ValueError("oversampling must be nonnegative")
    if r + p > min(m, n):
        raise ValueError(
            f"rank {r} plus oversampling {p} exceeds min(m, n) = {min(m, n)}"
        )
    q = _range_basis(a, r + p, rng)
    b = q.T @ a
    u = _left_factor(b, r)
    return q @ u, u.T @ b


def _check_sketch_params(m: int, n: int, k: int, l: int) -> None:
    if k < 1 or l < 1:
        raise ValueError("sketch sizes must be positive")
    if k > min(l, n):
        raise ValueError(f"sketch size k={k} must satisfy k <= min(l={l}, n={n})")
    if l > m:
        raise ValueError(f"sketch size l={l} must not exceed the row count {m}")


def _min_norm_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve of a @ x = b via QR, never an explicit pseudo-inverse.

    With a = q @ r, x solves r @ x = q.T @ b. The wide right-hand side b is
    read once, in its stored layout, by the product q.T @ b; the triangular
    solve then runs from the right on its transpose, x.T @ r.T = (q.T @ b).T,
    which is a Fortran-ordered view that BLAS overwrites in place.

    The sketches pass b = Psi and multiply the k x m solution by A. The QR
    solve and the minimum-norm fallback are both linear in b, so that is
    (Psi Q)^+ (Psi A) up to rounding, and no l x n right-hand side is formed.

    A rank-deficient a (probability-zero event for the sketch systems) falls
    back to a minimum-norm solve through complete orthogonal factorization.
    """
    q, r = thin_qr(a)
    diag = np.abs(np.diagonal(r))
    if diag.size and diag.min() > max(a.shape) * np.finfo(np.float64).eps * diag.max():
        return dtrsm(1.0, r, (q.T @ b).T, side=1, trans_a=1, overwrite_b=1).T
    warnings.warn(
        "rank-deficient system in sketch correction solve; "
        "minimum-norm solution returned",
        RuntimeWarning,
    )
    return scipy.linalg.lstsq(a, b, lapack_driver="gelsd")[0]


def _two_sided_sketch(
    a: np.ndarray, k: int, l: int, power_iters: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    # Omega is drawn before Psi; Psi gets orthonormal rows, `sketch` says why.
    q = _range_basis(a, k, rng)
    psi = thin_qr(rng.normal(l, a.shape[0]).T)[0].T
    for _ in range(power_iters):
        b = q.T @ a
        q, _ = thin_qr(a @ (b.T if _gram_eigh(b, k) is not None else thin_qr(b.T)[0]))
    return q, _min_norm_lstsq(psi @ q, psi) @ a


def sketch(a: np.ndarray, k: int, l: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided sketch: the pair (q, xc), a rank-<=k approximation q @ xc of a.

    Requires k <= min(l, n) and l <= m. The column test matrix Omega is
    random signs from raw Philox bits, or Gaussian when a has fewer than
    ``_SIGN_MIN_COLS`` columns (``_range_basis``), used raw:
    orthonormalizing it would not change range(a @ Omega), so q, and
    q @ xc, are the same up to rounding. The row test matrix Psi stays
    Gaussian and is given orthonormal rows, because re-weighting the rows
    of Psi does change the least-squares solution
    xc = (Psi @ q)^+ (Psi @ a). A rotation R of
    orthonormal rows does not, since (R Psi q)^+ R Psi a = (Psi q)^+ Psi a,
    so the rows are the Q^T of a Householder QR (``thin_qr``) of Psi^T: any
    orthonormal basis of the row space gives the same xc up to rounding.
    xc is formed as ((Psi @ q)^+ Psi) @ a, one k-row product with a; the
    l x n row sketch Psi @ a is never formed.
    The expected-error bound of Tropp, Yurtsever, Udell and Cevher (SIMAX
    2017, Thm 4.3) is proved for Gaussian test matrices; with the sign Omega
    it holds as an empirical check.
    """
    _check_sketch_params(*a.shape, k, l)
    return _two_sided_sketch(a, k, l, 0, rng)


def sub_sketch(
    a: np.ndarray, k: int, l: int, q: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided sketch with q rounds of subspace power iteration.

    Each round replaces the basis with an orthonormal basis of A @ (an
    orthonormal basis of A.T @ Q), damping the contribution of trailing
    singular directions: the randomized subspace iteration of Halko,
    Martinsson and Tropp (SIAM Review 2011, Alg. 4.4). When the k x k Gram
    matrix of B = Q.T @ A passes the sqrt(eps) guard (``_gram_eigh``), the
    round takes the QR of A @ B.T itself: the Householder Q of B.T is B.T
    times an upper triangle, which does not change the Householder Q of the
    product with A. Otherwise it
    takes the Householder Q of the n x k B.T first, so a graded spectrum
    keeps the Householder step bit for bit.
    With q = 0 this is exactly `sketch`, draw for draw.
    """
    if q < 0:
        raise ValueError("power iteration count must be nonnegative")
    _check_sketch_params(*a.shape, k, l)
    return _two_sided_sketch(a, k, l, q, rng)

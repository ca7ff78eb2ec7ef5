"""Matrix kernels: thin QR/SVD, truncated SVD, and randomized low-rank schemes.

The deterministic factorizations are thin wrappers over LAPACK with one
layout rule. LAPACK factors the tall orientation: a wide matrix (m < n) is
factored as its transpose, which is a view, and the factors are swapped
back. Every product or triangular solve that touches the long side of a
matrix reads it in its stored layout, through a transposed view rather than
a full-size copy.

A product A G^T whose inner dimension is the long side of A (the sketch
A Omega, and the power step's A B^T and A Q_b) is formed as (G A^T)^T, by
``_times_transpose``. For an F-ordered A, which is what ``tensor.unfold``
returns (copied middle modes and row-major inputs included), A^T and G are
then C-ordered operands of one plain GEMM. Measured on a shared 2-core
x86-64 machine, OpenBLAS 0.3.31 on one thread, fastest of 15, in ms:

    A (F-ordered)                        G rows   a @ g.T   (g @ a.T).T
    200 x 40000                          20       24.9      16.3
    200 x 40000, a copied mode-2 one     20       24.1      13.8
    100 x 10000                          15       3.2       1.4

Q^T A, THOSVD's U^T A and the sketches' ((Psi Q)^+ Psi) A are as fast as
written (U^T A on a 200^3 tensor at r = 20: 20.9 ms either way), and so is
``reconstruct``'s U @ unfold(G): its last product on a 200^3 model at rank
20 took 31.8 ms as written and 44.8 ms the other way round.

Every Householder QR here runs through ``_householder``, a blocked
``dgeqrt`` in Level-3 panels of ``_QR_BLOCK`` columns: ``thin_qr`` applies
its reflectors to the identity with ``dgemqrt`` to form Q, and the R-only QR
route of ``_left_factor`` reads R off its upper triangle. On one BLAS
thread this took THOSVD on a Hilbert 100^3 tensor, whose three unfoldings
all take that route, from 173 to 78 ms.

Every rank-r kernel returns one plain pair (U, C) with A ~= U @ C and U of
orthonormal columns: ``truncated_svd`` and ``rsvd`` give C = diag(s) @ V^T
(``rsvd`` up to rounding, as U^T A), ``sketch`` and ``sub_sketch`` give the
correction X_c. ``thin_svd`` returns NumPy's (u, s, vt). Nothing here fixes
signs, ``_left_factor`` included: ``tucker._sequential`` applies the sign
rule to every step's pair, in one place.

No rank-r kernel, nor ``_left_factor``, returns on a NaN or an inf in A. Every SVD runs through
``thin_svd``, which raises on one (NumPy's SVD never returns on an inf), a
sketch or range basis that is not finite raises the overflow ValueError
(``_times_transpose``, ``_range_basis``), and the Gram route refuses a Gram
matrix that is not finite. ``tucker._sequential`` relies on this to read
the entries of its input only after a failure.

Short, wide stages take the Gram route of Vannieuwenhoven, Vandebril and
Meerbergen (SISC 2012): ``eigh`` of the small Gram matrix B B^T instead of
a Householder factorization of the long B^T, when lambda_r > sqrt(eps)
lambda_1 (``_GRAM_GUARD``, checked by ``_gram_eigh`` on the eigenvalues it
just computed). Above that guard the rounding of the Gram matrix, about
eps lambda_1, stays below sqrt(eps) lambda_r; a guard of 100 eps let the
Hilbert 100^3 unfoldings through (lambda_r / lambda_1 = 6e-14) and moved
THOSVD's error by 4e-5 relative. ``_left_factor`` takes from it the r
leading left singular vectors of a wide matrix, without forming V, or else
an R-only QR of A^T and the SVD of the small triangle. Both routes give the
same factor up to rounding and column signs. THOSVD's steps take each
factor from it, from the Gram matrix of an unfolding that
``tensor._unfolding_gram`` forms with no unfold copy, and ``rsvd`` the SVD of
its projection.

The m x m Gram matrix gives up every eigenpair to one divide-and-conquer
``eigh`` (``driver="evd"``), and the top r are kept. LAPACK's index-subset
path, asked for the top r only, costs more wherever r is a large share of
m, and less than 1 ms less where r is a small one. Measured on the same
machine and OpenBLAS 0.3.31 (and its LAPACK), the two calls interleaved,
best of 100-300, in ms:

    (m, r)       where it runs                      subset   all, D&C
    (256, 50)    THOSVD on a 256 x 256 x 3 image    9.40     7.16
    (55, 50)     rsvd on that image                 1.45     0.36
    (25, 20)     rsvd on a 200^3 tensor at r = 20   0.229    0.094
    (15, 10)     rsvd on Hilbert 100^3 at r = 10    0.095    0.060
    (200, 20)    THOSVD on a 200^3 tensor           4.48     5.45
    (100, 10)    THOSVD on Hilbert 100^3 (fails)    1.12     1.52

Without eigenvectors the subset call took 9.0 ms at (256, 50), against
4.7 ms for all eigenvalues: the subset path itself is the cost.

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
on ``truncated_svd``: in the one-process benchmark a faster STHOSVD
slowed the trials after it, as the README records.

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

Both test matrices follow one rule, ``_test_matrix``: the column test
matrix Omega on unfoldings of 64 or more columns, and the sketches' row
test matrix Psi on unfoldings of 64 or more rows, are random signs drawn
from raw Philox bits (``RngStream.signs``), the standard drop-in for a
Gaussian one (Halko, Martinsson and Tropp, SIAM Review 2011, section 4.6;
Martinsson and Tropp, Acta Numerica 2020): 64 entries per raw word instead
of one Box-Muller normal each. Below 64 they are Gaussian, both drawn
column by column by one call, ``RngStream.normal(n, k)``, because a sign
matrix with few rows is often rank-deficient. ``rsvd`` and the sketches
take their range basis from one helper, ``_range_basis``, which draws no
Omega when it would be square (k equals the column count, which
``ApproxConfig.plan``'s clamp produces on small modes). Psi's rows are
replaced by the orthonormal Q^T of a Householder QR (``thin_qr``) of its
transpose. On a 256 x 256 x 3 image at ranks (50, 50, 3), the draw and
QR of the 256 x 101 Psi^T of each of the first two modes took 2.18 ms
Gaussian and 0.85 ms as signs (one OpenBLAS thread on a shared 2-core
x86-64 machine, fastest of 200).
The expected-error bound that ``metrics.bound_oracle`` evaluates is a
theorem for Gaussian test matrices; for sign test matrices it is an
empirical check (the acceptance suite's Monte Carlo test measures a mean
squared error of 4.58 against a bound of 21.3).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgemqrt, dgeqrt

from .rng import RngStream
from .tensor import _unfolding_gram, unfold

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

    An a with a NaN or an inf is a ValueError, checked in one pass before
    LAPACK sees it: NumPy 2.4.6's SVD (OpenBLAS 0.3.31) raises "SVD did not
    converge" on a NaN but never returns on an inf, at any shape tried from
    3 x 5 to 200 x 20. Every SVD in this module runs through here.
    """
    if not np.isfinite(a).all():
        raise ValueError("SVD input has a NaN or an inf")
    if a.shape[0] < a.shape[1]:
        v, s, ut = np.linalg.svd(a.T, full_matrices=False)
        return ut.T, s, v.T
    return np.linalg.svd(a, full_matrices=False)


# The Gram route runs only when lambda_r > _GRAM_GUARD * lambda_1 and
# lambda_r > _GRAM_FLOOR.
_GRAM_GUARD = np.sqrt(np.finfo(np.float64).eps)
_GRAM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _gram_eigh(a: np.ndarray, r: int, mode: int = 1) -> np.ndarray | None:
    """The r leading eigenvectors of A_(n) A_(n)^T, in descending order, or None below the guard.

    a is a matrix (mode 1, the default: the Gram matrix a @ a.T) or a tensor
    whose mode-n unfolding A_(n) is meant; ``tensor._unfolding_gram`` forms
    the Gram matrix in BLAS syrk calls that read a in its stored layout, with
    no unfold copy. Every eigenpair comes from one divide-and-conquer
    ``eigh`` (``driver="evd"``) and the top r are returned; the module
    docstring compares it with LAPACK's index-subset path. When lambda_r <=
    sqrt(eps) lambda_1 (``_GRAM_GUARD``) the rounding of the Gram matrix
    reaches the kept eigenvalues, and a factor built from them would lose
    digits. A Gram matrix that overflows (entries of a finite a above about
    1e154) is also None, and so is one whose lambda_r is at most tiny / eps
    (``_GRAM_FLOOR``, about 1e-292), where the products that form it are
    subnormal and carry fewer digits than eps promises (a 6 x 56 Gaussian
    scaled by 1e-160 got a factor off by 2e-4). Then the caller takes its QR
    route, which scales its norms. The eigenvalues only decide the guard; no
    caller reads them.
    """
    gram = _unfolding_gram(a, mode)
    if not np.isfinite(gram).all():
        return None
    w, v = scipy.linalg.eigh(gram, driver="evd", overwrite_a=True, check_finite=False)
    if not w[-r] > max(_GRAM_GUARD * w[-1], _GRAM_FLOOR):
        return None
    return v[:, ::-1][:, :r]


def _qr_left_factor(a: np.ndarray, r: int) -> np.ndarray:
    """Leading r left singular vectors of a wide a from an R-only QR of a.T.

    With a.T = Q R, a = R.T Q.T, so U(a) is the right singular vectors of the
    m x m triangle R, read from the top of ``_householder``'s output; Q is
    never formed.
    """
    v, _ = _householder(a.T)
    return thin_svd(np.triu(v[: a.shape[0]]))[2][:r].T


def _left_factor(a: np.ndarray, r: int, mode: int = 1) -> np.ndarray:
    """The r leading left singular vectors of the mode-n unfolding A_(n) of a, orthonormal.

    A wide A_(n) (I_n at most the product of the other dims) takes the Gram
    route when its spectrum allows, from the Gram matrix that
    ``_gram_eigh`` forms without unfolding a, and the R-only QR route
    otherwise; neither forms the right factor. A tall A_(n) keeps the u of
    ``truncated_svd(A_(n), r)``, which requires r at most its column count.
    Those two routes need A_(n) itself and form ``unfold(a, mode)``: a view
    for the first or last mode of a column-major a, a copy for a middle one.
    A matrix a with the default mode 1 is its own unfolding. The column
    signs are the route's; ``tucker._sequential`` fixes them.
    """
    m = a.shape[mode - 1]
    if not 1 <= r <= m:
        raise ValueError(f"rank {r} out of range for {m} rows")
    wide = m <= a.size // m
    v = _gram_eigh(a, r, mode) if wide else None
    if v is not None:
        return v
    a = unfold(a, mode)
    return _qr_left_factor(a, r) if wide else truncated_svd(a, r)[0]


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


# Below this many rows, a test matrix is Gaussian instead of random signs.
_SIGN_MIN_ROWS = 64


def _test_matrix(n: int, k: int, rng: RngStream) -> np.ndarray:
    """An n x k random test matrix: random signs from ``_SIGN_MIN_ROWS`` rows on, Gaussian below.

    This is the rule for both test matrices of the kernels: Omega, whose n
    is the column count of A, and Psi^T, whose n is its row count. A sign
    matrix with few rows is often rank-deficient (two columns of a 4 x 2
    one are parallel with probability 1/8, and 66% of all 4 x 4 sign
    matrices are singular), and the missing directions are then set by
    rounding, which moves the model when the input is rescaled; a square
    sign matrix of order 64 or more is singular with probability near eps.
    Either draw fills the matrix column by column: ``RngStream.signs(n, k)``
    or ``RngStream.normal(n, k)``.
    """
    return rng.signs(n, k) if n >= _SIGN_MIN_ROWS else rng.normal(n, k)


def _range_basis(a: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """Orthonormal basis Q of range(a @ Omega) for a k-column random Omega.

    Omega is used raw: orthonormalizing it would not change the range. When
    k equals the column count n, Q is taken from a itself and no Omega is
    drawn: any invertible Omega leaves range(a @ Omega) = range(a).
    Otherwise Omega is ``_test_matrix(n, k)``: random signs from 64
    columns of a on, Gaussian below.

    A Q that is not finite raises ``_times_transpose``'s overflow
    ValueError: a finite sketch (or a) with entries near the largest double
    can still overflow the Householder QR (a 4 x 1 sketch of the 1e307
    constant tensor, largest entry 7.4e307, gave a NaN Q), and a NaN or an
    inf in a reaches Q when k equals n. So no caller solves with a NaN
    basis, which would warn of a rank-deficient system and then fail in
    SciPy's input check.
    """
    n = a.shape[1]
    return _finite(thin_qr(a if k == n else _times_transpose(a, _test_matrix(n, k, rng).T))[0])


def _finite(y: np.ndarray) -> np.ndarray:
    """y, or a ValueError that names the overflow if any entry of y is not finite."""
    if not np.isfinite(y).all():
        raise ValueError(
            "sketch product overflowed: the entries are too close to the largest "
            "double (about 1.8e308); rescale the tensor"
        )
    return y


def _times_transpose(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The sketch a @ g.T of a long a, formed as (g @ a.T).T, or a ValueError if it overflows.

    The module docstring has the orientation rule. Entries near the largest
    double overflow the sketch, though not a, and would reach LAPACK as inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite((g @ a.T).T)


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
    if diag.min() > max(a.shape) * np.finfo(np.float64).eps * diag.max():
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
    """The body of `sketch` and `sub_sketch`, so neither calls the other: each keeps its own trace span."""
    if power_iters < 0:
        raise ValueError("power iteration count must be nonnegative")
    if k < 1 or l < 1:
        raise ValueError("sketch sizes must be positive")
    if k > min(l, a.shape[1]):
        raise ValueError(f"sketch size k={k} must satisfy k <= min(l={l}, n={a.shape[1]})")
    if l > a.shape[0]:
        raise ValueError(f"sketch size l={l} must not exceed the row count {a.shape[0]}")
    # Omega is drawn before Psi; Psi gets orthonormal rows, `sketch` says why.
    q = _range_basis(a, k, rng)
    psi = thin_qr(_test_matrix(a.shape[0], l, rng))[0].T
    for _ in range(power_iters):
        b = q.T @ a
        g = b if _gram_eigh(b, k) is not None else thin_qr(b.T)[0].T
        q, _ = thin_qr(_times_transpose(a, g))
    return q, _min_norm_lstsq(psi @ q, psi) @ a


def sketch(a: np.ndarray, k: int, l: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided sketch: the pair (q, xc), a rank-<=k approximation q @ xc of a.

    A ValueError names the first broken size rule, in this order: k and l
    positive, k <= min(l, n), l <= m. ``_two_sided_sketch``, the body it
    shares with `sub_sketch`, checks them. Both test matrices follow the
    rule of ``_test_matrix``: random signs from raw Philox bits, or Gaussian
    below ``_SIGN_MIN_ROWS``, Omega by the column count of a and Psi by its
    row count. Omega is drawn first and used raw: orthonormalizing it would
    not change range(a @ Omega), so q, and q @ xc, are the same up to
    rounding. Psi is given orthonormal rows, because re-weighting the rows
    of Psi does change the least-squares solution
    xc = (Psi @ q)^+ (Psi @ a). A rotation R of
    orthonormal rows does not, since (R Psi q)^+ R Psi a = (Psi q)^+ Psi a,
    so the rows are the Q^T of a Householder QR (``thin_qr``) of Psi^T: any
    orthonormal basis of the row space gives the same xc up to rounding.
    xc is formed as ((Psi @ q)^+ Psi) @ a, one k-row product with a; the
    l x n row sketch Psi @ a is never formed.
    The expected-error bound of Tropp, Yurtsever, Udell and Cevher (SIMAX
    2017, Thm 4.3) is proved for Gaussian test matrices; with sign test
    matrices it holds as an empirical check.
    """
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
    With q = 0 this is exactly `sketch`, draw for draw. A negative q is a
    ValueError, checked before the sizes, which follow `sketch`'s rules in
    its order.
    """
    return _two_sided_sketch(a, k, l, q, rng)

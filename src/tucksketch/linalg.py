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
THOSVD's error by 4e-5 relative. Two kernels use it:

* ``_left_factor`` -- the r leading left singular vectors of a wide matrix,
  without forming V: the Gram route, or else an R-only QR of A^T and the
  SVD of the small triangle. Its columns carry the canonical sign
  (largest-magnitude entry positive), so both routes and any LAPACK build
  give the same factor up to rounding. THOSVD takes each factor from it,
  and ``rsvd`` the SVD of its projection.
* ``_row_basis`` -- an orthonormal basis of range(B^T) for the power step of
  ``sub_sketch``: B^T V Lambda^(-1/2) on the Gram route, or else the Q of a
  Householder QR of B^T, as before.

So a randomized mode costs its GEMMs over A plus factorizations of k x k
matrices; on a separated spectrum no n x k matrix is factored. STHOSVD stays
on ``truncated_svd``: on the acceptance suite's speed-ordering tensor (one
BLAS thread) a Gram-route STHOSVD took 0.086 s against Sketch-STHOSVD's
0.114 s, where the paper's claim (criterion 6) needs Sketch at most half of
STHOSVD, and no sketch kernel change listed in the roadmap reaches 0.5x.

The randomized kernels are the interesting part:

* rsvd          -- range finder Q of A @ Omega, then the leading left
                   singular vectors of the projection Q^T A.
* sketch        -- two-sided sketch: a column sketch Y = A @ Omega and a row
                   sketch W = Psi @ A, combined as Q @ lstsq(Psi @ Q, W).
* sub_sketch    -- same, but the basis Q is sharpened by alternating
                   applications of A and A.T with re-orthonormalization in
                   between (subspace power iteration).

The column test matrix Omega is a matrix of random signs drawn from raw
Philox bits (``RngStream.signs``), the standard drop-in for a Gaussian one
(Halko, Martinsson and Tropp, SIAM Review 2011, section 4.6; Martinsson and
Tropp, Acta Numerica 2020): 64 entries per raw word instead of one
Box-Muller normal each. When Omega would be square (k equals the column
count, which ``ApproxConfig.plan``'s clamp produces on small modes), no
Omega is drawn and Y = A: a square sign matrix is singular for many draws.
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


def _gram_eigh(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The r largest eigenpairs (w, v) of a @ a.T in descending order, or None below the guard.

    ``a @ a.T`` is one BLAS syrk that reads a in its stored layout. When
    lambda_r <= sqrt(eps) lambda_1 (``_GRAM_GUARD``) the rounding of the Gram
    matrix reaches the kept eigenvalues, and a factor built from them would
    lose digits. A Gram matrix that overflows (entries of a finite a above
    about 1e154) is also None, and so is one whose lambda_r is at most
    tiny / eps (``_GRAM_FLOOR``, about 1e-292), where the products that
    form it are subnormal and carry fewer digits than eps promises (a
    6 x 56 Gaussian scaled by 1e-160 got a factor off by 2e-4). Then the
    caller takes its QR route, which scales its norms.
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
    return w[::-1], v[:, ::-1]


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
    a, which includes every r above the column count, keeps the u of
    ``truncated_svd(a, r)``.
    """
    m, n = a.shape
    if not 1 <= r <= m:
        raise ValueError(f"rank {r} out of range for {m} rows")
    if m > n:
        return _canonical_signs(truncated_svd(a, r)[0])
    pair = _gram_eigh(a, r)
    return _canonical_signs(pair[1] if pair is not None else _qr_left_factor(a, r))


def _row_basis(b: np.ndarray) -> np.ndarray:
    """An orthonormal basis of range(b.T) for a short, wide k x n matrix b (k <= n).

    When the k x k Gram matrix b @ b.T = V diag(lambda) V^T passes the guard
    lambda_k > sqrt(eps) lambda_1, the basis is b.T @ V diag(lambda)^(-1/2),
    a syrk, a k x k ``eigh`` and one GEMM; otherwise it is the Q of a
    Householder QR of b.T, formed in full. Each Gram-route column lies in
    range(b.T) up to the rounding of the product, so the weakest direction is
    off by about eps sigma_1 / sigma_k relative, as for Householder, which is
    eps^(3/4) at the guard; the columns are orthonormal to about
    eps sigma_1^2 / sigma_k^2, at most sqrt(eps), which the QR that follows
    in the power step absorbs.
    """
    pair = _gram_eigh(b, b.shape[0])
    if pair is None:
        return thin_qr(b.T)[0]
    w, v = pair
    return b.T @ (v / np.sqrt(w))


def _complete_basis(q: np.ndarray, extra: int) -> np.ndarray:
    """Append extra orthonormal columns orthogonal to range(q)."""
    m, k = q.shape
    if extra == 0:
        return q
    if k + extra > m:
        raise ValueError("cannot extend basis beyond the ambient dimension")
    # The full Q of q's QR is orthogonal and its first k columns span range(q).
    v, t = _householder(q)
    full, _ = dgemqrt(v, t, np.eye(m, k + extra, order="F"), overwrite_c=1)
    return np.hstack([q, full[:, k:]])


def truncated_svd(a: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r singular triplets of a, as the pair (u, c) with c = diag(s) @ vt.

    When r exceeds min(m, n), u gains an orthonormal completion and c gains
    zero rows: the padded singular values are zero, and an orthonormal
    completion of v does not exist once r exceeds the column count.
    """
    m, n = a.shape
    if r < 1:
        raise ValueError("rank must be at least 1")
    if r > m:
        raise ValueError(f"rank {r} exceeds the row count {m}")
    u, s, vt = thin_svd(a)
    c = s[:r, None] * vt[:r]
    extra = r - s.size
    if extra <= 0:
        return u[:, :r], c
    return _complete_basis(u, extra), np.vstack([c, np.zeros((extra, n))])


def rsvd(a: np.ndarray, r: int, p: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Randomized rank-r SVD with oversampling p, as the pair (u, diag(s) @ vt).

    Projects a onto the range Q of a @ Omega for a random-sign Omega with
    k = r + p columns (Halko, Martinsson and Tropp, SIAM Review 2011), then
    takes the r leading left singular vectors U_b of the short, wide k x n
    projection B = Q^T a from ``_left_factor``: ``eigh`` of the k x k Gram
    matrix B B^T, or an R-only QR of B^T when the spectrum fails the guard.
    Neither forms the n x k right factor. The pair is (Q U_b, U_b^T B), whose
    C = U_b^T B equals diag(s) @ vt up to rounding. When k equals the column
    count n, Q is taken from a itself and no Omega is drawn: any invertible
    Omega leaves range(a @ Omega) = range(a), but a square sign matrix is
    often singular (66% of all 4 x 4 sign matrices are).
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
    k = r + p
    q, _ = thin_qr(a if k == n else a @ rng.signs(n, k))
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
    m, n = a.shape
    # Omega is used raw and Psi gets orthonormal rows; `sketch` says why.
    # With k = n, Y = a: a square sign Omega would add nothing but the risk
    # of being singular.
    y = a if k == n else a @ rng.signs(n, k)
    psi = thin_qr(rng.normal(l, m).T)[0].T
    w = psi @ a
    q, _ = thin_qr(y)
    for _ in range(power_iters):
        q, _ = thin_qr(a @ _row_basis(q.T @ a))
    return q, _min_norm_lstsq(psi @ q, w)


def sketch(a: np.ndarray, k: int, l: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided sketch: the pair (q, xc), a rank-<=k approximation q @ xc of a.

    Requires k <= min(l, n) and l <= m. The column test matrix Omega is
    random signs from raw Philox bits, used raw: orthonormalizing it would
    not change range(a @ Omega), so q, and q @ xc, are the same up to
    rounding. The row test matrix Psi stays Gaussian and is given
    orthonormal rows, because re-weighting the rows of Psi does change the
    least-squares solution xc = (Psi @ q)^+ (Psi @ a). A rotation R of
    orthonormal rows does not, since (R Psi q)^+ R Psi a = (Psi q)^+ Psi a,
    so the rows are the Q^T of a Householder QR (``thin_qr``) of Psi^T: any
    orthonormal basis of the row space gives the same xc up to rounding.
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
    Martinsson and Tropp (SIAM Review 2011, Alg. 4.4). The inner basis of
    range(A.T @ Q) comes from ``_row_basis``: the k x k Gram matrix of
    Q.T @ A when its spectrum passes the sqrt(eps) guard, and a Householder
    QR of the n x k (Q.T @ A).T otherwise, so a graded spectrum keeps the
    Householder step bit for bit.
    With q = 0 this is exactly `sketch`, draw for draw.
    """
    if q < 0:
        raise ValueError("power iteration count must be nonnegative")
    _check_sketch_params(*a.shape, k, l)
    return _two_sided_sketch(a, k, l, q, rng)

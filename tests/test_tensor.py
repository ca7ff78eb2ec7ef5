import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tucksketch.tensor import (
    as_tensor,
    fold,
    frobenius_norm,
    mode_n_product,
    unfold,
)


def column_index(index, mode, dims):
    """Independent oracle for the unfolding column of a 1-based multi-index."""
    j = 1
    for k in range(1, len(dims) + 1):
        if k == mode:
            continue
        stride = 1
        for m in range(1, k):
            if m != mode:
                stride *= dims[m - 1]
        j += (index[k - 1] - 1) * stride
    return j


dims_strategy = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 4, 5), (2, 2, 2, 3)])
def test_unfold_matches_index_map(dims):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dims)
    for mode in range(1, len(dims) + 1):
        m = unfold(x, mode)
        assert m.shape == (dims[mode - 1], np.prod(dims) // dims[mode - 1])
        for index in itertools.product(*(range(1, d + 1) for d in dims)):
            j = column_index(index, mode, dims)
            row = index[mode - 1]
            assert m[row - 1, j - 1] == x[tuple(i - 1 for i in index)]


def test_unfold_specific_entry():
    # dims (2,3,2): element (2,3,1) lands at row 3, column 2 of the mode-2 unfolding
    x = np.arange(12, dtype=float).reshape((2, 3, 2))
    m = unfold(x, 2)
    assert m[3 - 1, 2 - 1] == x[1, 2, 0]
    assert column_index((2, 3, 1), 2, (2, 3, 2)) == 2


def test_unfold_first_order_is_column():
    x = np.array([1.0, 2.0, 3.0])
    m = unfold(x, 1)
    assert m.shape == (3, 1)
    assert np.array_equal(m[:, 0], x)


def test_unfold_mode_out_of_range():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        unfold(x, 0)
    with pytest.raises(ValueError):
        unfold(x, 3)


def test_roundtrip_linear_offsets_bit_exact():
    dims = (3, 4, 5)
    x = np.arange(np.prod(dims), dtype=float).reshape(dims, order="F")
    for mode in (1, 2, 3):
        assert np.array_equal(fold(unfold(x, mode), mode, dims), x)


@given(dims_strategy, st.integers(min_value=0, max_value=10**6))
def test_roundtrip_random(dims, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dims)
    for mode in range(1, len(dims) + 1):
        assert np.array_equal(fold(unfold(x, mode), mode, dims), x)


def test_fold_first_order():
    m = np.array([[1.0], [2.0]])
    x = fold(m, 1, (2,))
    assert x.shape == (2,)
    assert np.array_equal(x, [1.0, 2.0])


def test_fold_zero_matrix():
    x = fold(np.zeros((2, 6)), 1, (2, 3, 2))
    assert x.shape == (2, 3, 2)
    assert not x.any()


def test_fold_shape_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 1, (2, 3, 2))


def test_mode_product_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4, 5))
    for mode, d in enumerate((3, 4, 5), start=1):
        assert np.array_equal(mode_n_product(x, np.eye(d), mode), x)


def test_mode_product_row_sums():
    x = np.ones((2, 2, 2))
    a = np.ones((1, 2))
    y = mode_n_product(x, a, 1)
    assert y.shape == (1, 2, 2)
    assert np.allclose(y, 2.0)


def test_mode_product_against_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 4))
    y = mode_n_product(x, a, 2)
    expected = np.zeros((3, 2, 5))
    for i in range(3):
        for k in range(2):
            for j in range(5):
                expected[i, k, j] = sum(x[i, t, j] * a[k, t] for t in range(4))
    assert np.allclose(y, expected, atol=1e-12)
    assert np.array_equal(y, fold(a @ unfold(x, 2), 2, (3, 2, 5)))


def test_mode_product_dimension_mismatch():
    with pytest.raises(ValueError):
        mode_n_product(np.zeros((3, 4)), np.zeros((2, 5)), 2)


@given(st.integers(min_value=0, max_value=10**6))
def test_mode_product_multilinearity(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4, 2))
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    lhs = mode_n_product(x, a + b, 2)
    rhs = mode_n_product(x, a, 2) + mode_n_product(x, b, 2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * frobenius_norm(lhs))


@given(st.integers(min_value=0, max_value=10**6))
def test_mode_product_commutes_across_modes(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((6, 5))
    lhs = mode_n_product(mode_n_product(x, a, 1), b, 3)
    rhs = mode_n_product(mode_n_product(x, b, 3), a, 1)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * frobenius_norm(lhs))


def test_frobenius_norm_values():
    assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


@given(dims_strategy, st.integers(min_value=0, max_value=10**6))
def test_frobenius_matches_unfoldings(dims, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dims)
    for mode in range(1, len(dims) + 1):
        assert frobenius_norm(x) == frobenius_norm(unfold(x, mode))


def test_kronecker_block_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.arange(6, dtype=float).reshape(3, 2)
    k = np.kron(a, b)
    assert k.shape == (6, 4)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(k[3 * i : 3 * i + 3, 2 * j : 2 * j + 2], a[i, j] * b)


def test_unfolding_kronecker_reconstruction_identity():
    # unfold(X, n) == U_n @ G_(n) @ kron(U_N, ..., skipping n, ..., U_1).T
    rng = np.random.default_rng(5)
    core = rng.standard_normal((2, 3, 2))
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in [(3, 2), (3, 3), (3, 2)]]
    x = core
    for n, u in enumerate(factors, start=1):
        x = mode_n_product(x, u, n)
    for n in (1, 2, 3):
        others = [factors[i] for i in reversed(range(3)) if i != n - 1]
        chain = others[0]
        for u in others[1:]:
            chain = np.kron(chain, u)
        expected = factors[n - 1] @ unfold(core, n) @ chain.T
        assert np.allclose(unfold(x, n), expected, atol=1e-10 * frobenius_norm(x))


def test_as_tensor_validation():
    with pytest.raises(ValueError):
        as_tensor(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        as_tensor(np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="dimensions must all be positive"):
        as_tensor(np.zeros((2, 0, 3)))
    x = as_tensor(3.5)
    assert x.shape == (1,)
    assert as_tensor([[1, 2], [3, 4]]).dtype == np.float64

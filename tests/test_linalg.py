import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgate.linalg import (
    col_broadcast_mul,
    matmul,
    row_softmax,
    rowwise_cosine,
    rowwise_l2,
    rowwise_max,
    sigmoid,
)
from streamgate import oracle


def f32(x):
    return np.array(x, dtype=np.float32)


def test_matmul_identity():
    out = matmul(f32([[1, 0], [0, 1]]), f32([[3, 4], [5, 6]]))
    np.testing.assert_array_equal(out, np.array([[3, 4], [5, 6]], dtype=np.float32))


def test_matmul_hand_computed():
    out = matmul(f32([[1, 2]]), f32([[3], [4]]))
    np.testing.assert_allclose(out, [[11.0]])


def test_row_softmax_symmetry():
    np.testing.assert_allclose(row_softmax(f32([[0.0, 0.0]])), [[0.5, 0.5]])


def test_row_softmax_no_overflow():
    out = row_softmax(f32([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-6)


def test_row_softmax_closed_form():
    out = row_softmax(f32([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-6)


def test_rowwise_l2_pythagorean():
    np.testing.assert_allclose(rowwise_l2(f32([[3.0, 4.0]])), [5.0])


def test_rowwise_l2_zero_and_signs():
    np.testing.assert_array_equal(rowwise_l2(np.zeros((3, 4), dtype=np.float32)), np.zeros(3))
    np.testing.assert_allclose(rowwise_l2(f32([[1.0], [-1.0]])), [1.0, 1.0])


def test_rowwise_cosine_identity_and_antipodal():
    a = np.array([[1.0, 2.0, 3.0], [0.5, -0.5, 2.0]], dtype=np.float32)
    np.testing.assert_allclose(rowwise_cosine(a, a), [1.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(rowwise_cosine(a, -a), [-1.0, -1.0], atol=1e-6)


def test_rowwise_cosine_orthogonal():
    np.testing.assert_allclose(rowwise_cosine(f32([[1.0, 0.0]]), f32([[0.0, 1.0]])), [0.0], atol=1e-7)


def test_sigmoid_symmetry_point():
    np.testing.assert_allclose(sigmoid(f32([0.0])), [0.5])


def test_sigmoid_antisymmetry():
    xs = np.array([0.3, 1.7, 4.0], dtype=np.float32)
    np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), np.ones(3), atol=1e-6)


def test_sigmoid_closed_form():
    np.testing.assert_allclose(sigmoid(f32([math.log(3.0)])), [0.75], atol=1e-6)


def test_sigmoid_strictly_open_at_extremes():
    out = sigmoid(f32([-1e30, -500.0, 500.0, 1e30]))
    assert (out > 0).all() and (out < 1).all()


def test_col_broadcast_mul_identity_and_annihilator():
    m = np.arange(6, dtype=np.float32).reshape(2, 3)
    np.testing.assert_array_equal(col_broadcast_mul(m, np.ones(3, dtype=np.float32)), m)
    np.testing.assert_array_equal(col_broadcast_mul(m, np.zeros(3, dtype=np.float32)), np.zeros((2, 3)))


def test_col_broadcast_mul_hand_computed():
    out = col_broadcast_mul(f32([[1.0, 2.0], [3.0, 4.0]]), f32([10.0, 100.0]))
    np.testing.assert_allclose(out, [[10.0, 200.0], [30.0, 400.0]])


def test_rowwise_max_cases():
    np.testing.assert_allclose(rowwise_max(f32([[7.0], [2.0]])), [7.0, 2.0])
    np.testing.assert_allclose(rowwise_max(f32([[1.0, 5.0, 2.0]])), [5.0])
    np.testing.assert_allclose(rowwise_max(np.full((3, 4), 2.5, dtype=np.float32)), [2.5, 2.5, 2.5])


def test_outputs_are_float32():
    assert matmul(f32([[1.0]]), f32([[2.0]])).dtype == np.float32
    assert row_softmax(f32([[1.0, 2.0]])).dtype == np.float32
    assert sigmoid(f32([1.0])).dtype == np.float32


def test_kernels_deterministic_bitwise():
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((6, 5)).astype(np.float32)
    b = rng.standard_normal((5, 7)).astype(np.float32)
    assert matmul(a, b).tobytes() == matmul(a, b).tobytes()
    assert row_softmax(a).tobytes() == row_softmax(a).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=-1e4, max_value=1e4, width=32), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_row_softmax_rows_sum_to_one(rows):
    out = row_softmax(f32(rows))
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), np.ones(len(rows)), atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=8))
def test_sigmoid_strictly_in_unit_interval(values):
    out = sigmoid(f32(values))
    assert (out > 0).all() and (out < 1).all()


def test_matches_scalar_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        m = rng.standard_normal((n, k)).astype(np.float32)
        v = rng.standard_normal(k).astype(np.float32)
        np.testing.assert_allclose(
            rowwise_l2(m), oracle.o_rowwise_l2(m.tolist()), rtol=1e-5, atol=1e-6
        )
        np.testing.assert_allclose(
            col_broadcast_mul(m, v),
            oracle.o_col_broadcast_mul(m.tolist(), v.tolist()),
            rtol=1e-5,
            atol=1e-6,
        )


# The kernels call ufuncs and ufunc reductions directly; each must stay bit
# for bit equal to its textbook numpy form (np.clip, .sum, .max), including
# on values that overflow exp, on NaN entries and on zero rows.


def _textbook_row_softmax(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _textbook_rowwise_l2(m):
    return np.sqrt((m * m).sum(axis=1))


def _textbook_rowwise_cosine(a, b):
    denom = _textbook_rowwise_l2(a) * _textbook_rowwise_l2(b) + np.float32(1e-8)
    return np.clip((a * b).sum(axis=1) / denom, np.float32(-1.0), np.float32(1.0))


def _textbook_sigmoid(v):
    with np.errstate(over="ignore"):
        out = np.float32(1.0) / (np.float32(1.0) + np.exp(-v))
    lo = np.nextafter(np.float32(0.0), np.float32(1.0))
    hi = np.nextafter(np.float32(1.0), np.float32(0.0))
    return np.clip(out, lo, hi)


def _pin_matrices():
    rng = np.random.default_rng(2024)
    extremes = rng.choice(f32([-1e4, -100.0, 0.0, 100.0, 1e4]), size=(6, 5))
    with_nan = rng.standard_normal((5, 9)).astype(np.float32)
    with_nan[rng.random((5, 9)) < 0.2] = np.nan
    with_zero_rows = rng.standard_normal((6, 4)).astype(np.float32)
    with_zero_rows[[1, 4]] = 0.0
    return [
        rng.standard_normal((1, 1)).astype(np.float32),
        rng.standard_normal((5, 7)).astype(np.float32),
        (30.0 * rng.standard_normal((16, 32))).astype(np.float32),
        extremes.astype(np.float32),
        with_nan,
        with_zero_rows,
    ]


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_row_kernels_bit_identical_to_textbook_forms():
    for m in _pin_matrices():
        assert _same_bits(row_softmax(m), _textbook_row_softmax(m))
        assert _same_bits(rowwise_l2(m), _textbook_rowwise_l2(m))
        assert _same_bits(rowwise_max(m), m.max(axis=1))


def test_sigmoid_bit_identical_to_textbook_form():
    for m in _pin_matrices():
        for v in (m.ravel(), -m.ravel(), 1e4 * m.ravel()):
            assert _same_bits(sigmoid(v), _textbook_sigmoid(v))
    assert np.isnan(sigmoid(f32([np.nan, 0.0]))[0])


def test_rowwise_cosine_bit_identical_to_textbook_form():
    matrices = _pin_matrices()
    rng = np.random.default_rng(7)
    for a in matrices:
        b = rng.standard_normal(a.shape).astype(np.float32)
        b[: a.shape[0] // 2] = 0.0
        for x, y in ((a, a), (a, -a), (a, b), (b, a), (a, np.zeros_like(a))):
            assert _same_bits(rowwise_cosine(x, y), _textbook_rowwise_cosine(x, y))

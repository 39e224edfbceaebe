import math

import numpy as np
import pytest
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
    sigmoid_neg_inplace,
)
from streamgate import linalg, oracle
from streamgate.errors import ConfigError


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


def test_public_sigmoid_and_row_softmax_leave_their_argument_unchanged():
    rng = np.random.default_rng(11)
    m = (30.0 * rng.standard_normal((4, 6))).astype(np.float32)
    before = m.tobytes()
    row_softmax(m)
    row_softmax(m, m.max(axis=1, keepdims=True))
    sigmoid(m)
    sigmoid(m.ravel())
    assert m.tobytes() == before


def test_row_softmax_writes_into_out():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((3, 5)).astype(np.float32)
    want = row_softmax(m)
    out = np.empty_like(m)
    assert row_softmax(m, out=out) is out and out.tobytes() == want.tobytes()
    assert row_softmax(m, m.max(axis=1, keepdims=True), out=m) is m and m.tobytes() == want.tobytes()


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


def test_o_gate_step_mask_is_the_product_of_the_gates_its_strategy_runs():
    rng = np.random.default_rng(5)
    cand, prev_cand, prev_state = (rng.standard_normal((3, 4)).tolist() for _ in range(3))
    frame, prev_frame = (rng.standard_normal((2, 4)).tolist() for _ in range(2))
    layers = [np.abs(rng.standard_normal((3, 2))).tolist()]
    args = (cand, prev_cand, prev_state, frame, prev_frame, layers, 1.0, 1e-6, 4.0, -2.0)
    temporal = oracle.o_temporal_mask(cand, prev_cand, 1.0, 1e-6)
    divergence = oracle.o_feature_divergence(frame, prev_frame)
    spatial = oracle.o_spatial_mask(oracle.o_aggregate_attention(layers), divergence, 4.0, -2.0)
    expected = {"uniform": [1.0] * 3, "temporal": temporal, "spatial": spatial,
                "fused": oracle.o_fuse_masks(temporal, spatial)}
    for strategy, mask in expected.items():
        assert oracle.o_gate_step(*args, strategy)[1] == mask
    # An unknown name is refused, not read as fused.
    with pytest.raises(ValueError, match="'fusd' is not a valid Strategy"):
        oracle.o_gate_step(*args, "fusd")


@pytest.mark.parametrize("kwargs, name", [
    ({"instances": 0}, "instances"),  # an empty report list, which passed without a check
    ({"instances": -3}, "instances"),
    ({"instances": "5"}, "instances"),
    ({"instances": 2.0}, "instances"),
    ({"seed": -1}, "oracle seed"),
    ({"seed": 0.5}, "oracle seed"),
])
def test_run_oracle_suite_rejects_bad_arguments_naming_them(kwargs, name):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer >= "):
        oracle.run_oracle_suite(**kwargs)


@pytest.mark.parametrize("tol", ["x", math.nan, -1e-5, True])
def test_run_oracle_suite_rejects_a_bad_tol_before_running(tol, monkeypatch):
    monkeypatch.setattr(oracle, "_rel_err", None)  # no instance runs
    with pytest.raises(ConfigError, match="^tol must be "):
        oracle.run_oracle_suite(instances=1, tol=tol)


@pytest.mark.parametrize("entries", ["all", "one"])
@pytest.mark.parametrize("op", ["rowwise_max", "sigmoid"])
def test_the_oracle_suite_fails_a_kernel_that_returns_nan(monkeypatch, op, entries):
    kernel = getattr(linalg, op)

    def nan_kernel(*args):
        out = kernel(*args)
        if entries == "all":
            out[...] = np.nan
        else:
            out.flat[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(linalg, op, nan_kernel)
    reports = {r.op: r for r in oracle.run_oracle_suite(instances=50)}
    assert not reports[op].passed and reports[op].max_rel_err == math.inf
    assert all(r.passed and math.isfinite(r.max_rel_err) for r in reports.values() if r.op != op)


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


F32_INF = np.float32(np.inf)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_row_kernels_bit_identical_to_textbook_forms():
    for m in _pin_matrices():
        assert _same_bits(row_softmax(m), _textbook_row_softmax(m))
        assert _same_bits(rowwise_l2(m), _textbook_rowwise_l2(m))
        assert _same_bits(rowwise_max(m), m.max(axis=1))


def test_row_softmax_with_given_row_max_bit_identical_to_textbook_form():
    # row_max is the (N, 1) column np.maximum.reduce(..., keepdims=True) gives.
    for m in _pin_matrices():
        column = np.maximum.reduce(m, axis=1, keepdims=True)
        assert column.shape == (m.shape[0], 1)
        assert _same_bits(row_softmax(m, column), _textbook_row_softmax(m))


def test_sigmoid_bit_identical_to_textbook_form():
    for m in _pin_matrices():
        for v in (m.ravel(), -m.ravel(), 1e4 * m.ravel()):
            assert _same_bits(sigmoid(v), _textbook_sigmoid(v))
    assert np.isnan(sigmoid(f32([np.nan, 0.0]))[0])


def test_sigmoid_neg_inplace_of_negated_values_equals_sigmoid():
    # Negation is exact, so sigmoid_neg_inplace(-v) must overwrite its
    # argument with sigmoid(v)'s bits, also where exp overflows (|v| past
    # about 88.72) and saturates.
    boundary = f32([88.72283, 88.72284])
    boundary = np.concatenate([boundary, np.nextafter(boundary, F32_INF), np.nextafter(boundary, -F32_INF)])
    cases = [m.ravel() for m in _pin_matrices()] + [
        np.concatenate([boundary, -boundary]),
        f32([-1e30, -1e4, -100.0, -0.0, 0.0, 0.7, 100.0, 1e4, 1e30, np.finfo(np.float32).max]),
    ]
    for v in cases:
        u = np.negative(v)
        with np.errstate(over="ignore"):
            assert sigmoid_neg_inplace(u) is u
        assert _same_bits(u, sigmoid(v))
        assert _same_bits(u, _textbook_sigmoid(v))


def test_rowwise_cosine_bit_identical_to_textbook_form():
    matrices = _pin_matrices()
    rng = np.random.default_rng(7)
    for a in matrices:
        b = rng.standard_normal(a.shape).astype(np.float32)
        b[: a.shape[0] // 2] = 0.0
        for x, y in ((a, a), (a, -a), (a, b), (b, a), (a, np.zeros_like(a))):
            assert _same_bits(rowwise_cosine(x, y), _textbook_rowwise_cosine(x, y))


# matmul sends two 2-D operands through ndarray.dot, which must give the
# bits np.matmul gives, on every operand shape the frame path meets; a
# stacked left operand must keep np.matmul's bits too, which ndarray.dot of
# a stack by a matrix does not give.


def _matmul_cases():
    rng = np.random.default_rng(2025)
    for n, k, m in ((1, 32, 32), (16, 32, 1), (16, 1, 32), (1, 1, 1), (1, 7, 1), (16, 32, 32), (5, 33, 16)):
        a = rng.standard_normal((n, k)).astype(np.float32)
        b = rng.standard_normal((k, m)).astype(np.float32)
        yield f"{n}x{k} @ {k}x{m}", a, b
        yield f"{n}x{k} @ transposed view of {m}x{k}", a, np.ascontiguousarray(b.T).T
        yield f"transposed view of {k}x{n} @ {k}x{m}", np.ascontiguousarray(a.T).T, b
        stacked = rng.standard_normal((3, k, m)).astype(np.float32)
        yield f"{n}x{k} @ stack of 3 {k}x{m}", a, stacked
        yield f"{n}x{k} @ transposed views of a stack", a, np.ascontiguousarray(stacked.swapaxes(1, 2)).swapaxes(1, 2)
        for batch in (1, 2, 4, 80):
            left = rng.standard_normal((batch, n, k)).astype(np.float32)
            yield f"stack of {batch} {n}x{k} @ {k}x{m}", left, b
            yield f"stack of {batch} {n}x{k} @ transposed view of {m}x{k}", left, np.ascontiguousarray(b.T).T


def test_matmul_bit_identical_to_np_matmul():
    for case, a, b in _matmul_cases():
        got, want = matmul(a, b), np.matmul(a, b)
        assert _same_bits(got, want), (
            f"linalg.matmul (ndarray.dot) and np.matmul disagree for {case}: "
            "this platform's BLAS computes the two products differently"
        )

"""Dense float32 array kernels used by every other module.

The kernels trust their callers: every argument is already a float32
ndarray of the right rank, and the shapes are compatible. They neither
coerce nor check; the public operations in `gating` and `decoder` do
both, once, with `as_matrix`/`as_vector`, and raise ConfigError there.
They call ufuncs and ufunc reductions directly (`np.add.reduce` for
`.sum`, `np.minimum(np.maximum(...))` for `np.clip`), and send products
of two 2-D operands through `ndarray.dot` rather than `np.matmul`: the
results are bit-identical, and the per-frame loop skips numpy's
Python-level wrappers and the slower dispatch. A stacked operand on
either side keeps `np.matmul`, because `dot` of a stack by a matrix is
not bit-identical to it. For the same reason `row_softmax` takes its row
maxima as an (N, 1) column, as `np.maximum.reduce(m, axis=1,
keepdims=True)` returns them, and can write into an `out=` array;
`sigmoid_neg_inplace` overwrites an array its caller owns with the
sigmoid of its negation, under the caller's `np.errstate`, so a caller
that computes its argument already negated skips the negation; the public
`sigmoid` negates into a new array and calls it under an errstate, so the
formula has one definition. IEEE negation and the subtraction
`b - a == -(a - b)` are exact, so a negated argument gives the same bits,
and each in-place form applies the same operations to the same operands
in the same order as its out-of-place form.
Given finite inputs every kernel returns finite float32 values.
Identical inputs produce bit-identical outputs across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

F32 = np.float32

# Guard added to the norm product in cosine similarity so zero rows are safe.
EPS_COS = 1e-8

# Smallest/largest float32 strictly inside (0, 1); sigmoid output is clipped
# to this open interval so saturation can never return exactly 0 or 1.
_SIG_LO = np.nextafter(F32(0.0), F32(1.0))
_SIG_HI = np.nextafter(F32(1.0), F32(0.0))

_ONE = F32(1.0)
_NEG_ONE = F32(-1.0)
_EPS_COS32 = F32(EPS_COS)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float32 array, raising ConfigError otherwise."""
    m = np.asarray(x, dtype=F32)
    if m.ndim != 2:
        raise ConfigError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float32 array, raising ConfigError otherwise."""
    v = np.asarray(x, dtype=F32)
    if v.ndim != 1:
        raise ConfigError(f"{name} must be 1-D, got ndim={v.ndim}")
    return v


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b; a is n x k or a stack of them, b likewise k x m.

    Two 2-D operands go through `a.dot(b)`, which dispatches faster than
    `np.matmul` and gives the same bits; a stack on either side keeps
    `np.matmul` (`dot` of a stack by a matrix gives other bits).
    """
    return a.dot(b) if a.ndim == 2 and b.ndim == 2 else np.matmul(a, b)


def row_softmax(
    m: np.ndarray, row_max: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax, stabilized by per-row max subtraction.

    row_max, if given, must be the (N, 1) column of row maxima,
    `np.maximum.reduce(m, axis=1, keepdims=True)`: a caller that needs the
    row maxima anyway passes them in instead of reducing the rows twice. out,
    if given, is a float32 array shaped like m (m itself included) that
    receives the result; otherwise a new array does.
    """
    if row_max is None:
        row_max = np.maximum.reduce(m, axis=1, keepdims=True)
    e = np.subtract(m, row_max, out=out)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=1, keepdims=True), out=e)


def rowwise_l2(m: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm: out[i] = sqrt(sum_j m[i,j]^2)."""
    return np.sqrt(np.add.reduce(m * m, axis=1))


def rowwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row cosine similarity of two equal-shape matrices.

    out[i] = <a_i, b_i> / (|a_i| |b_i| + EPS_COS), clamped to [-1, 1].
    """
    dots = np.add.reduce(a * b, axis=1)
    denom = rowwise_l2(a) * rowwise_l2(b) + _EPS_COS32
    return np.minimum(np.maximum(dots / denom, _NEG_ONE), _ONE)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, strictly inside (0, 1); v is unchanged."""
    # A fresh errstate per call: numpy refuses to re-enter a shared one.
    with np.errstate(over="ignore"):
        return sigmoid_neg_inplace(np.negative(v))


def sigmoid_neg_inplace(u: np.ndarray) -> np.ndarray:
    """Overwrite u with sigmoid(-u) = 1 / (1 + exp(u)) and return it.

    exp(u) overflows for u above about 88.72; the caller runs this under
    `np.errstate(over="ignore")`, where the overflow saturates to the
    smallest float32 above 0.
    """
    np.exp(u, out=u)
    np.add(_ONE, u, out=u)
    np.divide(_ONE, u, out=u)
    np.maximum(u, _SIG_LO, out=u)
    return np.minimum(u, _SIG_HI, out=u)


def col_broadcast_mul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scale each column j of m by v[j]; v has one entry per column."""
    return m * v[np.newaxis, :]


def rowwise_max(m: np.ndarray) -> np.ndarray:
    """Per-row maximum of a matrix with at least one column."""
    return np.maximum.reduce(m, axis=1)

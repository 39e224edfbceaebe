"""Dense float32 array kernels used by every other module.

The kernels trust their callers: every argument is already a float32
ndarray of at least the right rank, and the shapes are compatible. The row
kernels reduce along the last axis (`axis=-1`) and broadcast over the
others, so any leading axes are a batch: a stack of B matrices gives the
bits of B calls on its 2-D slices, and the private cores of `decoder` and
`gating` above them serve one session or a stack of sessions with one
body. The kernels neither coerce nor check; the public operations in
`gating`, `decoder` and `world` do both, once, through
`as_matrix`/`as_vector` (and `AttentionTrace`), and raise ConfigError
naming the argument there;
`_check_finite` names a non-finite result's cause in a StateError.
They call ufuncs and ufunc reductions directly (`np.add.reduce` for
`.sum`, `np.minimum(np.maximum(...))` for `np.clip`), and send products
of two 2-D operands through `ndarray.dot` rather than `np.matmul`: the
results are bit-identical, and the per-frame loop skips numpy's
Python-level wrappers and the slower dispatch. A stacked operand on
either side keeps `np.matmul`, because `dot` of a stack by a matrix is
not bit-identical to it. For the same reason `row_softmax` takes its row
maxima as an (..., N, 1) column, as `np.maximum.reduce(m, axis=-1,
keepdims=True)` returns them, and can write into an `out=` array;
`sigmoid_neg_inplace` overwrites an array its caller owns with the
sigmoid of its negation, so a caller that computes its argument already
negated skips the negation; the public `sigmoid` negates into a new array
and calls it, so the formula has one definition. IEEE negation and the
subtraction `b - a == -(a - b)` are exact, so a negated argument gives the
same bits, and each in-place form applies the same operations to the same
operands in the same order as its out-of-place form, up to the order of a
sum's or a product's two operands, which IEEE arithmetic does not see.
Given finite inputs whose products stay within float32 range, every
kernel returns finite float32 values.
Identical inputs produce bit-identical outputs across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, StateError

F32 = np.float32

# The largest finite float32, as a float: the bound on every real argument
# that is cast to float32, so that its cast stays finite.
F32_MAX = float(np.finfo(F32).max)

# Guard added to the norm product in cosine similarity so zero rows are safe.
EPS_COS = 1e-8

# Smallest/largest float32 strictly inside (0, 1); sigmoid output is clipped
# to this open interval so saturation can never return exactly 0 or 1.
_SIG_LO = np.nextafter(F32(0.0), F32(1.0))
_SIG_HI = np.nextafter(F32(1.0), F32(0.0))

_ONE = F32(1.0)
_NEG_ONE = F32(-1.0)
_EPS_COS32 = F32(EPS_COS)

# The package's one floating-point policy. Every public operation that
# computes on arrays carries `@_quiet`, and nothing else enters an errstate:
# private cores and the kernels below run under their public caller's. A
# saturating exp or a float32 overflow stays silent, and the NaN of a
# non-finite input (inf - inf, inf / inf, 0 * inf) flows on: to the
# operation's `_check_finite`, which names its cause in a StateError, or out,
# from a transparent one such as `sigmoid`. numpy sets a fresh context per
# decorated call, so the one instance decorates every operation and nests,
# as run_session calling encode_frame does.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _as_f32(x, name: str, ndim: int, form: str) -> np.ndarray:
    """x as a non-empty float32 array of rank ndim (`form` in the message), else ConfigError naming `name`.

    That includes ragged or non-numeric input, which numpy refuses, and
    any zero-length axis.
    """
    try:
        a = np.asarray(x, dtype=F32)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a rectangular numeric array, got {type(x).__name__}: {exc}") from None
    if a.ndim != ndim:
        raise ConfigError(f"{name} must be {form}, got ndim={a.ndim}")
    if not a.size:
        raise ConfigError(f"{name} must not be empty, got shape {a.shape}")
    return a


def _check_finite(result, overflow: str | None, named=(), nonfinite: str = "{}") -> None:
    """Raise StateError naming why `result` is not finite, if its sum (itself if 0-d) is not.

    The cause is the first non-finite `named` (name, array) input, as `nonfinite.format(name)`,
    else the float32 `overflow`, unless it is None (the caller saturates) or only the sum overflowed.
    The result's dot with itself is tested first, in about half the time of the sum: it is finite
    only if every entry is finite and below sqrt(F32_MAX) in magnitude, and then so is the sum, so
    the sum is taken only when the dot is not finite.
    """
    flat = result.ravel()
    if not math.isfinite(flat.dot(flat)) and not math.isfinite(np.add.reduce(result, axis=None)):
        for name, array in named:
            if not np.isfinite(array).all():
                raise StateError(nonfinite.format(name))
        if overflow is not None and not np.isfinite(result).all():
            raise StateError(overflow)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float32 array, raising ConfigError otherwise."""
    return _as_f32(x, name, 2, "2-D")


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float32 array, raising ConfigError otherwise."""
    return _as_f32(x, name, 1, "1-D")


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

    row_max, if given, must be the (..., N, 1) column of row maxima,
    `np.maximum.reduce(m, axis=-1, keepdims=True)`, or `np.fmax.reduce`'s,
    which give the same softmax: they differ only in the sign of a zero,
    which exp hides, and in a row holding a NaN, which comes out all NaN
    either way. A caller that needs the
    row maxima anyway passes them in instead of reducing the rows twice. out,
    if given, is a float32 array shaped like m (m itself included) that
    receives the result; otherwise a new array does.
    """
    if row_max is None:
        row_max = np.maximum.reduce(m, axis=-1, keepdims=True)
    e = np.subtract(m, row_max, out=out)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def rowwise_l2(m: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm: out[i] = sqrt(sum_j m[i,j]^2)."""
    return np.sqrt(np.add.reduce(m * m, axis=-1))


def cosine_denominator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row |a_i| |b_i| + EPS_COS of two equal-shape matrices.

    An entry is inf where finite rows overflow float32 in their squares or
    in the norm product, and non-finite where a row is.
    """
    return rowwise_l2(a) * rowwise_l2(b) + _EPS_COS32


def rowwise_cosine(a: np.ndarray, b: np.ndarray, denom: np.ndarray | None = None) -> np.ndarray:
    """Per-row cosine similarity of two equal-shape matrices.

    out[i] = <a_i, b_i> / (|a_i| |b_i| + EPS_COS), clamped to [-1, 1].
    denom, if given, must be `cosine_denominator(a, b)`: a caller that
    checks the denominators first passes them in.
    """
    if denom is None:
        denom = cosine_denominator(a, b)
    dots = np.add.reduce(a * b, axis=-1)
    return np.minimum(np.maximum(dots / denom, _NEG_ONE), _ONE)


@_quiet
def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, strictly inside (0, 1); v is unchanged."""
    return sigmoid_neg_inplace(np.negative(v))


def sigmoid_neg_inplace(u: np.ndarray) -> np.ndarray:
    """Overwrite u with sigmoid(-u) = 1 / (1 + exp(u)) and return it.

    exp(u) overflows for u above about 88.72, and the result saturates to
    the smallest float32 above 0.
    """
    np.exp(u, out=u)
    u += _ONE
    np.divide(_ONE, u, out=u)
    np.maximum(u, _SIG_LO, out=u)
    return np.minimum(u, _SIG_HI, out=u)


def col_broadcast_mul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scale each column j of m by v[j]; v has one entry per column, behind the leading axes m has."""
    return m * v[..., np.newaxis, :]


def rowwise_max(m: np.ndarray) -> np.ndarray:
    """Per-row maximum of a matrix with at least one column."""
    return np.maximum.reduce(m, axis=-1)

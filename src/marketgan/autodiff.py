"""Reverse-mode automatic differentiation on dense float64 arrays.

Every op on a tensor that requires gradients records a node holding its
inputs and a backward closure; the nodes reachable from a loss are the
recording that backward() consumes. Backward closures are written in terms
of the ops in this module, so gradients themselves can be recorded and
differentiated again (needed for gradient penalties). All arithmetic is
float64, and NaN/inf never propagates silently: a tensor construction or
a forward op that can produce a non-finite value raises NonFiniteError
naming the op when it does, and a reverse sweep raises it when a gradient
it returns is not finite (the ops a sweep runs are not screened one by
one). The ops in _FINITE_PRESERVING (neg, clip, the shape ops and the
bounded activations) are not screened: their output is finite whenever
their inputs are, and every input was screened when it was made.

Four ops are fused, each one recorded op with a closed-form backward:
linear() is a dense layer x @ w.T + b, batch_norm() normalizes with batch
statistics, softmax() is the stable exp(x - max) / sum(exp(x - max)) and
self_attention() is a whole self-attention layer. batch_norm_inference()
normalizes with frozen statistics as a composite of the ops above (see
frozen_batch_norm), so autodiff derives its gradients. The fused ops'
backward closures ask whether the sweep records: a first-order sweep reads
what the forward pass kept (and forms the dense-layer gradients with numpy
directly), while a recording sweep (grad with create_graph) rebuilds it
from the inputs with the ops above, so every gradient can be
differentiated again. A non-finite value formed inside a fused op is
reported as that op. Gradient masks (relu, leaky_relu, clip) are formed
only when a backward closure runs, so a forward pass under no_grad
allocates none.

The reverse sweep computes only the branches that lead to its targets (the
tensors grad() was asked about, or the leaves backward() fills): a node
runs its backward closure only when one of its inputs is a target or was
produced by such a node, and the closure is told which inputs need a
gradient, so a gradient nobody reads is never formed. It lets go of each
intermediate gradient once the closure that reads it has run.
"""

from __future__ import annotations

import itertools
import math
import weakref
from contextlib import nullcontext

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NonFiniteError(ArithmeticError):
    """An op produced (or was handed) NaN or infinity."""


class TapeError(RuntimeError):
    """Invalid use of the recording, e.g. replaying a consumed backward."""


_GRAD_ENABLED = True
_SEQ = itertools.count()

# Set while a reverse sweep runs: the ops its backward closures run are not
# screened one by one; backward() and grad() screen what the sweep returns.
# That keeps detection because every live node's gradient flows into a
# returned gradient, and the closures only multiply, add, subtract, matmul,
# sum, reshape, transpose, broadcast or crop it; the fused softmax and
# self_attention closures among them. relu, leaky_relu and clip multiply by
# their masks instead of selecting, and the only crop, conv1d_transpose's
# padding margin, drops taps of windows that also reach interior positions
# (while padding < kernel size, as in every preset). No closure selects with
# np.where or by indexing, so NaN or inf born in a sweep reaches a returned
# gradient (inf * 0 is NaN). The one way it can vanish is a denominator the
# sweep forms: div's gradient g*a / (b*b) reads 0 where b*b overflows to
# inf, where a per-op check would have raised.
_SWEEPING = False

# Outside a sweep, _record screens every op's output except these, whose
# output is finite whenever their inputs are. No detection is lost: every
# input was screened when it became a tensor (by construction or by the op
# that made it), so a non-finite value can only be born in a screened op.
# A value written into ``.data`` after that screen is caught by the first
# screened op that reads it (linear, the convs, batch norm, self_attention,
# add), which may then be named instead of a finite-preserving op before it.
_FINITE_PRESERVING = frozenset({
    "neg", "clip", "reshape", "transpose", "broadcast_to",
    "relu", "leaky_relu", "tanh", "sigmoid", "softmax",
})


class no_grad:
    """Context manager that suspends recording. Ops inside run as plain numpy."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class _Node:
    # The node keeps the id of its output, not the output itself: a tensor
    # and its node referring to each other would be a reference cycle, and
    # every recorded array would then wait for the cycle collector instead
    # of being freed when its last user lets go. A node is only ever reached
    # through its output tensor, so the id is live whenever it is read.
    # Ops whose gradient reads their own output (exp, sqrt, tanh, sigmoid)
    # hold it through a weak reference for the same reason; the sweep keeps
    # every tensor that receives a gradient alive while its closure runs.
    __slots__ = ("op", "inputs", "out_id", "backward_fn", "seq", "consumed")

    def __init__(self, op, inputs, out, backward_fn):
        self.op = op
        self.inputs = inputs
        self.out_id = id(out)
        self.backward_fn = backward_fn
        self.seq = next(_SEQ)
        self.consumed = False


def _check_finite(arr: np.ndarray, op: str):
    if _SWEEPING:
        return
    # cheap screen first: the sum is non-finite iff some entry is, short of
    # a genuine float64 overflow, which the full check below also treats as
    # non-finite anyway
    if not math.isfinite(arr.sum()):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{op} produced a non-finite value")
        raise NonFiniteError(f"{op} overflowed float64")


class Tensor:
    """Dense float64 array with optional gradient tracking.

    ``data`` is the underlying numpy array, ``grad`` (a numpy array or None)
    is populated by backward(). Tensors created inside a recorded forward
    pass carry a reference to the node that produced them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return powc(self, exponent)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(inputs: tuple) -> bool:
    """Whether an op on ``inputs`` is recorded: recording is on and one of
    them requires gradients."""
    return _GRAD_ENABLED and any(t.requires_grad for t in inputs)


def _record(op: str, out_data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    if op not in _FINITE_PRESERVING:
        _check_finite(out_data, op)
    requires = _records(inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = requires
    out.grad = None
    out._node = None
    if requires:
        out._node = _Node(op, inputs, out, backward_fn)
    return out


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead))
    axes += tuple(
        i + lead for i, s in enumerate(shape) if s == 1 and g.shape[i + lead] != 1
    )
    return reshape(tsum(g, axis=axes, keepdims=False), shape)


# ---------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e

    def backward_fn(g, need):
        ga = _unbroadcast(g, a.shape) if need[0] else None
        gb = _unbroadcast(g, b.shape) if need[1] else None
        return ga, gb

    return _record("add", out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError as e:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}") from e

    def backward_fn(g, need):
        ga = _unbroadcast(g, a.shape) if need[0] else None
        gb = _unbroadcast(neg(g), b.shape) if need[1] else None
        return ga, gb

    return _record("sub", out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e

    def backward_fn(g, need):
        ga = _unbroadcast(mul(g, b), a.shape) if need[0] else None
        gb = _unbroadcast(mul(g, a), b.shape) if need[1] else None
        return ga, gb

    return _record("mul", out, (a, b), backward_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            out = a.data / b.data
        except ValueError as e:
            raise ShapeError(f"div: {a.shape} vs {b.shape}") from e

    def backward_fn(g, need):
        ga = _unbroadcast(div(g, b), a.shape) if need[0] else None
        gb = None
        if need[1]:
            gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return ga, gb

    return _record("div", out, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g, _need):
        return (neg(g),)

    return _record("neg", -a.data, (a,), backward_fn)


def powc(a: Tensor, exponent) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    a = _as_tensor(a)
    c = float(exponent)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a.data ** c

    def backward_fn(g, _need):
        return (mul(mul(g, c), powc(a, c - 1.0)),)

    return _record("pow", out, (a,), backward_fn)


def texp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backward_fn(g, _need):
        return (mul(g, out_ref()),)

    out = _record("exp", out_data, (a,), backward_fn)
    out_ref = weakref.ref(out)
    return out


def tlog(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def backward_fn(g, _need):
        return (div(g, a),)

    return _record("log", out, (a,), backward_fn)


def tsqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore"):
        out_data = np.sqrt(a.data)

    def backward_fn(g, _need):
        return (div(mul(g, 0.5), out_ref()),)

    out = _record("sqrt", out_data, (a,), backward_fn)
    out_ref = weakref.ref(out)
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]. Gradient is zero outside the open interval."""
    a = _as_tensor(a)
    if not lo < hi:
        raise ValueError(f"clip: lo={lo} must be < hi={hi}")
    out = np.clip(a.data, lo, hi)

    def backward_fn(g, _need):
        return (mul(g, Tensor(((a.data > lo) & (a.data < hi)).astype(np.float64))),)

    return _record("clip", out, (a,), backward_fn)


# ---------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from e

    def backward_fn(g, _need):
        return (reshape(g, a.shape),)

    return _record("reshape", out, (a,), backward_fn)


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes (plain transpose for 2-D input)."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last needs ndim >= 2, got {a.shape}")

    def backward_fn(g, _need):
        return (transpose_last(g),)

    return _record("transpose", np.swapaxes(a.data, -1, -2), (a,), backward_fn)


def broadcast_to(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError as e:
        raise ShapeError(f"broadcast_to: {a.shape} -> {shape}") from e

    def backward_fn(g, _need):
        return (_unbroadcast(g, a.shape),)

    return _record("broadcast_to", out, (a,), backward_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        axes = tuple(range(a.ndim))
    elif np.iterable(axis):
        axes = tuple(int(ax) % max(a.ndim, 1) for ax in axis)
    else:
        axes = (int(axis) % max(a.ndim, 1),)
    out = a.data.sum(axis=axes if a.ndim else None, keepdims=keepdims)
    kept_shape = tuple(
        1 if i in axes else s for i, s in enumerate(a.shape)
    )

    def backward_fn(g, _need):
        gk = g if keepdims or a.ndim == 0 else reshape(g, kept_shape)
        return (broadcast_to(gk, a.shape),)

    return _record("sum", np.asarray(out, dtype=np.float64), (a,), backward_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if a.size == 0:
        raise ShapeError("mean of an empty tensor")
    s = tsum(a, axis=axis, keepdims=keepdims)
    count = a.size / max(s.size, 1)
    return mul(s, 1.0 / count)


# ---------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or batched product of two 3-D
    tensors with equal leading dimension."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul needs two 2-D or two 3-D tensors, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions {a.shape} x {b.shape} do not agree")
    if a.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch dimensions {a.shape[0]} vs {b.shape[0]} differ")
    out = a.data @ b.data

    def backward_fn(g, need):
        ga = matmul(g, transpose_last(b)) if need[0] else None
        gb = matmul(transpose_last(a), g) if need[1] else None
        return ga, gb

    return _record("matmul", out, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w.T + b for x [B,in], w [out,in] and b [out], as one
    recorded op: the same matmul followed by the same add as the composite
    ``matmul(x, transpose_last(w)) + b``, bit for bit.

    A first-order sweep forms the gradients with numpy; a recording sweep
    (create_graph) builds them from module ops, so double backward is exact.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear needs x [batch, in] and w [out, in], got {x.shape} "
                         f"and {w.shape}")
    b = _as_tensor(b)
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} needs shape ({w.shape[0]},)")
    out = x.data @ w.data.T + b.data

    def backward_fn(g, need):
        if _GRAD_ENABLED:
            gx = matmul(g, w) if need[0] else None
            gw = transpose_last(matmul(transpose_last(x), g)) if need[1] else None
            gb = tsum(g, axis=(0,)) if need[2] else None
        else:
            gx = Tensor(g.data @ w.data) if need[0] else None
            # (x.T @ g).T, not g.T @ x: the two need not agree bit for bit
            gw = Tensor((x.data.T @ g.data).T) if need[1] else None
            gb = Tensor(g.data.sum(axis=(0,))) if need[2] else None
        return gx, gw, gb

    return _record("linear", out, (x, w, b), backward_fn)


# ---------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g, _need):
        return (mul(g, Tensor((a.data > 0).astype(np.float64))),)

    return _record("relu", np.maximum(a.data, 0.0), (a,), backward_fn)


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"leaky_relu: alpha must lie in (0, 1), got {alpha}")
    # the slope is exactly 1.0 or alpha, so x * slope equals the branchy
    # np.where(x > 0, x, alpha * x) bit for bit without its mispredictions
    slope_data = np.maximum((a.data > 0).astype(np.float64), alpha)
    out = a.data * slope_data

    def backward_fn(g, _need):
        return (mul(g, Tensor(slope_data)),)

    return _record("leaky_relu", out, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g, _need):
        out = out_ref()
        return (mul(g, sub(1.0, mul(out, out))),)

    out = _record("tanh", np.tanh(a.data), (a,), backward_fn)
    out_ref = weakref.ref(out)
    return out


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # evaluate on the stable side of the exponential for each sign
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def backward_fn(g, _need):
        out = out_ref()
        return (mul(g, mul(out, sub(1.0, out))),)

    out = _record("sigmoid", out_data, (a,), backward_fn)
    out_ref = weakref.ref(out)
    return out


_ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "linear")


def activation(x: Tensor, kind: str, alpha: float = 0.2) -> Tensor:
    """Apply a named activation. ``alpha`` is only used by leaky_relu."""
    if kind == "relu":
        return relu(x)
    if kind == "leaky_relu":
        return leaky_relu(x, alpha)
    if kind == "tanh":
        return tanh(x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "linear":
        return _as_tensor(x)
    raise ValueError(f"unknown activation {kind!r}, expected one of {_ACTIVATIONS}")


def _softmax_data(x: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Softmax of the array ``x`` along ``axis`` in one buffer: ``out``,
    which may be ``x`` itself, or a new array. The same roundings as
    exp(x - max) / sum(exp(x - max)) formed one step at a time."""
    y = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def _softmax_vjp(y: Tensor, g: Tensor, axis: int):
    """Softmax's backward along ``axis`` for output ``y`` and output
    gradient ``g``: returns y * (g - s) and s = sum(g * y) over ``axis``."""
    s = tsum(mul(g, y), axis=axis, keepdims=True)
    return mul(y, sub(g, s)), s


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``, as one recorded op with
    the bits of the composite exp(x - max) / sum(exp(x - max)).

    An entry more than the float64 range below its maximum weighs exactly 0.
    A first-order sweep reads the output; a recording sweep (create_graph)
    rebuilds it from x with module ops, so double backward is exact.
    """
    x = _as_tensor(x)
    y = _softmax_data(x.data, axis)

    def backward_fn(g, _need):
        if _GRAD_ENABLED:
            e = texp(sub(x, Tensor(x.data.max(axis=axis, keepdims=True))))
            y_t = div(e, tsum(e, axis=axis, keepdims=True))
        else:
            y_t = Tensor(y)
        return (_softmax_vjp(y_t, g, axis)[0],)

    return _record("softmax", y, (x,), backward_fn)


# ---------------------------------------------------------------------
# 1-D convolution family
#
# conv1d computes cross-correlation (no kernel flip): for stride s and
# padding p, out[b,o,j] = sum_{c,t} x[b,c,j*s+t-p] * w[o,c,t].
# conv1d_transpose is its exact adjoint in the input argument, and the
# kernel-gradient op below closes the family under differentiation, so
# all three can appear in backward closures of each other.
# ---------------------------------------------------------------------

def conv_output_length(length: int, kernel_size: int, stride: int, padding: int) -> int:
    if length + 2 * padding < kernel_size:
        raise ShapeError(
            f"conv1d: input length {length} with padding {padding} is shorter "
            f"than kernel size {kernel_size}"
        )
    return (length + 2 * padding - kernel_size) // stride + 1


def conv_transpose_output_length(length: int, kernel_size: int, stride: int, padding: int) -> int:
    out = (length - 1) * stride - 2 * padding + kernel_size
    if out < 1:
        raise ShapeError(
            f"conv1d_transpose: output length {out} < 1 for input length {length}, "
            f"kernel {kernel_size}, stride {stride}, padding {padding}"
        )
    return out


def _check_conv_args(stride, padding):
    if int(stride) < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if int(padding) < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    return int(stride), int(padding)


def _conv_operands(x, w, op: str):
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"{op}: input must be 3-D [B,C,L] and kernel 3-D [O,C,k], "
                         f"got {x.shape} and {w.shape}")
    return x, w


def _conv1d_windows(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Read-only strided view of the zero-padded input: [B, C, L_out, k]."""
    batch, channels, length = x.shape
    if padding:
        padded = np.zeros((batch, channels, length + 2 * padding))
        padded[:, :, padding: padding + length] = x
        x = padded
    l_out = (x.shape[2] - k) // stride + 1
    s_batch, s_chan, s_pos = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (batch, channels, l_out, k), (s_batch, s_chan, s_pos * stride, s_pos),
        writeable=False)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """The windows of [B,C,L] ``x`` as gemm rows: [B, L_out, C*k]. Every conv
    gemm of an input reads this one layout: conv1d, its kernel gradient and
    the 1x1 projections of self_attention."""
    batch, channels, length = x.shape
    l_out = conv_output_length(length, k, stride, padding)
    wins = _conv1d_windows(x, k, stride, padding)
    return np.ascontiguousarray(wins.transpose(0, 2, 1, 3)).reshape(batch, l_out, channels * k)


def _conv1d_transpose_raw(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                          out_len: int) -> np.ndarray:
    batch, c_in, l_in = x.shape
    _, c_out, k = w.shape
    # contributions of every (output channel, kernel tap, input position), via
    # one gemm over x's own layout: [O*k, C] @ [B, C, L] -> [B, O, k, L], so
    # each tap below reads contiguous rows
    contrib = np.matmul(w.reshape(c_in, c_out * k).T, x).reshape(batch, c_out, k, l_in)
    full = (l_in - 1) * stride + k
    buf = np.zeros((batch, c_out, full))
    for t in range(k):
        buf[:, :, t : t + stride * l_in : stride] += contrib[:, :, t, :]
    # crop the padding margin; contributions outside [p, p+out_len) are dropped
    end = padding + out_len
    if end <= full:
        return buf[:, :, padding:end]
    out = np.zeros((batch, c_out, out_len))
    out[:, :, : max(full - padding, 0)] = buf[:, :, padding:]
    return out


def conv1d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation of ``x`` [B,C,L] with kernels ``w`` [O,C,k]."""
    stride, padding = _check_conv_args(stride, padding)
    x, w = _conv_operands(x, w, "conv1d")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"conv1d: input has {x.shape[1]} channels but kernel expects {w.shape[1]}"
        )
    cols = _im2col(x.data, w.shape[2], stride, padding)
    return _conv1d(x, w, stride, padding, cols)


def _conv1d(x3: Tensor, w3: Tensor, stride: int, padding: int, cols: np.ndarray) -> Tensor:
    """conv1d of [B,C,L] ``x3`` with [O,C,k] ``w3`` from ``cols``, the
    _im2col of x3, which the kernel gradient reads again."""
    c_out, _, k = w3.shape
    length = x3.shape[2]
    out = (cols @ w3.data.reshape(c_out, -1).T).transpose(0, 2, 1)

    def backward_fn(g, need):
        gx = None
        if need[0]:
            gx = conv1d_transpose(g, w3, stride, padding, output_length=length)
        gw = _conv1d_kgrad(x3, g, stride, padding, k, cols) if need[1] else None
        return gx, gw

    return _record("conv1d", out, (x3, w3), backward_fn)


def conv1d_transpose(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
                     output_length: int | None = None) -> Tensor:
    """Transposed 1-D convolution (the adjoint of conv1d in its input).

    ``x`` is [B,O,L], kernels are [O,C,k], output is [B,C,L_out] with
    L_out = (L-1)*stride - 2*padding + k unless ``output_length`` overrides
    it (gradients of strided convolutions need the longer original length).
    An ``output_length`` that a conv1d with these arguments would not map
    back onto L raises ShapeError.
    """
    stride, padding = _check_conv_args(stride, padding)
    x, w = _conv_operands(x, w, "conv1d_transpose")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"conv1d_transpose: input has {x.shape[1]} channels but kernel has "
            f"{w.shape[0]} input channels"
        )
    k = w.shape[2]
    if output_length is None:
        out_len = conv_transpose_output_length(x.shape[2], k, stride, padding)
    else:
        out_len = int(output_length)
        if out_len < 1:
            raise ShapeError(f"conv1d_transpose: output_length must be >= 1, got {out_len}")
        if (out_len + 2 * padding < k
                or conv_output_length(out_len, k, stride, padding) != x.shape[2]):
            raise ShapeError(
                f"conv1d_transpose: output_length {out_len} does not conv back to input "
                f"length {x.shape[2]} with kernel {k}, stride {stride}, padding {padding}")
    out = _conv1d_transpose_raw(x.data, w.data, stride, padding, out_len)

    def backward_fn(g, need):
        # both gradients are gemms over the windows of g: build them once
        cols = _im2col(g.data, k, stride, padding)
        gx = _conv1d(g, w, stride, padding, cols) if need[0] else None
        gw = _conv1d_kgrad(g, x, stride, padding, k, cols) if need[1] else None
        return gx, gw

    return _record("conv1d_transpose", out, (x, w), backward_fn)


def _conv1d_kgrad(x3: Tensor, g3: Tensor, stride: int, padding: int, k: int,
                  cols: np.ndarray) -> Tensor:
    """Gradient of conv1d w.r.t. its kernel, itself differentiable.

    x3 is the conv input [B,C,L] and ``cols`` its _im2col, g3 the output
    gradient [B,O,L_out]; the result has kernel shape [O,C,k].
    """
    batch, c_in, length = x3.shape
    _, c_out, l_out = g3.shape
    g2 = np.ascontiguousarray(g3.data.transpose(1, 0, 2)).reshape(c_out, batch * l_out)
    out = (g2 @ cols.reshape(batch * l_out, c_in * k)).reshape(c_out, c_in, k)

    def backward_fn(g, need):
        # g has kernel shape [O,C,k] and plays the role of a kernel here
        gx = None
        if need[0]:
            gx = conv1d_transpose(g3, g, stride, padding, output_length=length)
        gg = _conv1d(x3, g, stride, padding, cols) if need[1] else None
        return gx, gg

    return _record("conv1d_kgrad", out, (x3, g3), backward_fn)


# ---------------------------------------------------------------------
# batch normalization
#
# Training-mode batch norm is one recorded op whose backward is the closed
# form of Ioffe & Szegedy (2015), written with the ops above so it can be
# differentiated again. Inference mode is a fixed per-feature affine map of
# the frozen statistics, composed from those ops by frozen_batch_norm; a
# network's eval forward folds it into the layer before it with the same
# helper (layers._fold_batch_norm).
# ---------------------------------------------------------------------

def _feature_layout(x: Tensor, op: str):
    """Reduction axes and the broadcast shape of per-feature constants for
    [B,F] or [B,C,L] input: statistics are taken over every axis but 1."""
    if x.ndim == 2:
        return (0,), (1, x.shape[1])
    if x.ndim == 3:
        return (0, 2), (1, x.shape[1], 1)
    raise ShapeError(f"{op} expects a [batch, features] or [batch, channels, length] "
                     f"input, got {x.shape}")


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Normalize [B,F] per feature, or [B,C,L] per channel over batch and
    length, with batch statistics: out = (x - mean) / sqrt(var + eps) * gamma
    + beta, where gamma and beta have one entry per feature.

    Returns (out, batch_mean, batch_var); the statistics are flat numpy
    arrays (biased variance) for the caller's running estimates. ``out`` is
    a single recorded op. Its backward is the closed form
    dx = gamma * inv / n * (n g - sum(g) - xhat * sum(g xhat)) with
    inv = 1/sqrt(var + eps), xhat = (x - mean) * inv and n values per
    feature. A first-order sweep reads xhat and inv from the forward pass;
    a recording sweep (create_graph) rebuilds them from x with module ops,
    so double backward is exact.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    axes, bshape = _feature_layout(x, "batch_norm")
    if x.shape[0] < 2:
        raise ShapeError(f"batch_norm needs a batch of at least 2, got {x.shape[0]}")
    features = x.shape[1]
    if gamma.size != features or beta.size != features:
        raise ShapeError(f"batch_norm: gamma {gamma.shape} and beta {beta.shape} need "
                         f"{features} entries")
    n = x.size // features
    scale = 1.0 / n
    mean = x.data.sum(axis=axes, keepdims=True) * scale
    centered = x.data - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * scale
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data.reshape(bshape) + beta.data.reshape(bshape)

    def backward_fn(g, need):
        if _GRAD_ENABLED:
            # recording: rebuild the statistics from x so they are on the graph
            c = sub(x, mul(tsum(x, axis=axes, keepdims=True), scale))
            var_t = mul(tsum(mul(c, c), axis=axes, keepdims=True), scale)
            inv_t = div(1.0, tsqrt(add(var_t, eps)))
            xhat_t = mul(c, inv_t)
        else:
            inv_t, xhat_t = Tensor(inv), Tensor(xhat)
        g_xhat = tsum(mul(g, xhat_t), axis=axes, keepdims=True) if need[0] or need[1] else None
        g_sum = tsum(g, axis=axes, keepdims=True) if need[0] or need[2] else None
        gx = None
        if need[0]:
            coef = mul(reshape(gamma, bshape), mul(inv_t, scale))
            gx = mul(coef, sub(sub(mul(g, float(n)), g_sum), mul(xhat_t, g_xhat)))
        gg = reshape(g_xhat, gamma.shape) if need[1] else None
        gb = reshape(g_sum, beta.shape) if need[2] else None
        return gx, gg, gb

    y = _record("batch_norm", out, (x, gamma, beta), backward_fn)
    return y, mean.reshape(-1), var.reshape(-1)


def frozen_batch_norm(y: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                      running_var: np.ndarray, eps: float, shape: tuple):
    """Batch norm with frozen statistics, composed from module ops:
    (y - mean) * scale + beta with scale = gamma * 1/sqrt(var + eps), formed
    in that order, each per-feature constant viewed as ``shape`` (a view
    that changes nothing records no op). Returns the mapped y and the
    viewed scale. The statistics are constants; gradients reach y, gamma
    and beta, and can be differentiated again."""
    def view(t):
        return t if t.shape == shape else reshape(t, shape)

    inv = (1.0 / np.sqrt(running_var + eps)).reshape(shape)
    scale = mul(view(gamma), Tensor(inv))
    centered = sub(y, Tensor(running_mean.reshape(shape)))
    return add(mul(centered, scale), view(beta)), scale


def batch_norm_inference(x: Tensor, gamma: Tensor, beta: Tensor,
                         running_mean: np.ndarray, running_var: np.ndarray,
                         eps: float = 1e-5) -> Tensor:
    """Affine normalization of [B,F] or [B,C,L] input with frozen
    per-feature statistics: frozen_batch_norm over the broadcast shape of
    the features, so autodiff derives the gradients to x, gamma and beta."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    _, bshape = _feature_layout(x, "batch_norm_inference")
    mean = np.asarray(running_mean, dtype=np.float64)
    var = np.asarray(running_var, dtype=np.float64)
    features = x.shape[1]
    if any(a.size != features for a in (gamma, beta, mean, var)):
        raise ShapeError(f"batch_norm_inference: gamma {gamma.shape}, beta {beta.shape}, "
                         f"mean {mean.shape} and variance {var.shape} need {features} "
                         f"entries")
    return frozen_batch_norm(x, gamma, beta, mean, var, eps, bshape)[0]


# ---------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------

# windows per block of the map an unrecorded self_attention builds: at the
# sagan1d generator's length 63 a block is 1 MB, an eval chunk of 256
# windows 8 MB
_ATTENTION_BLOCK = 32


def self_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, gate: Tensor) -> Tensor:
    """Self-attention over the positions of a [B,C,L] feature map (Zhang et
    al. 2019) as one recorded op: out = x + gate * (V @ A).

    Q, K and V are the 1x1 convolutions of x by ``wq`` and ``wk`` [Cq,C,1]
    and ``wv`` [C,C,1], read from one _im2col of x, and A = softmax(Q^T K)
    along axis 1, so the weights that each output position mixes sum to
    one. ``gate`` is a scalar. The forward makes the gemm calls of the
    composite of conv1d, matmul and softmax and has its bits; a non-finite
    value it forms is reported as this op. A recorded call keeps the whole
    [B,L,L] map for its backward; an unrecorded one (under no_grad, or with
    no input that requires gradients) forms it _ATTENTION_BLOCK windows at a
    time, with the same bits, so an eval batch holds a bounded map.

    The backward is closed-form. With P = V^T g and r = sum(P * A) down each
    column, softmax's backward gives S = A * (P - r) at the scores. Q, K
    and V (as [B,L,.]) get gate * S @ K, gate * S^T @ Q and gate * A @ g^T;
    each kernel gets its part times the columns of x, x gets g plus the
    parts back through the kernels, and the gate gets sum(r) =
    sum(g * (V @ A)). A first-order sweep reads Q, K, V and A from the
    forward pass; a recording sweep (create_graph) rebuilds them from x with
    module ops, so double backward is exact.
    """
    x, wq, wk, wv, gate = (_as_tensor(t) for t in (x, wq, wk, wv, gate))
    if x.ndim != 3:
        raise ShapeError(f"self_attention expects [batch, channels, length], got {x.shape}")
    batch, channels, length = x.shape
    if (wq.ndim != 3 or wq.shape[1:] != (channels, 1) or wk.shape != wq.shape
            or wv.shape != (channels, channels, 1)):
        raise ShapeError(f"self_attention: for {channels} channels wq and wk need one shape "
                         f"[query, {channels}, 1] and wv [{channels}, {channels}, 1], got "
                         f"{wq.shape}, {wk.shape} and {wv.shape}")
    if gate.shape != ():
        raise ShapeError(f"self_attention: the gate must be a scalar, got shape {gate.shape}")
    inputs = (x, wq, wk, wv, gate)
    cols = _im2col(x.data, 1, 1, 0)              # [B, L, C]
    q, k, v = (cols @ w.data.reshape(w.shape[0], channels).T for w in (wq, wk, wv))
    block = batch if _records(inputs) else _ATTENTION_BLOCK
    a = np.empty((min(block, batch), length, length))
    out = np.empty(x.shape)
    for lo in range(0, batch, max(block, 1)):
        part = slice(lo, lo + block)
        blk = a[: min(block, batch - lo)]
        np.matmul(q[part], k[part].transpose(0, 2, 1), out=blk)  # a[b,i,j] = q_i . k_j
        _softmax_data(blk, 1, out=blk)                          # columns (fixed j) sum to 1
        np.add(x.data[part], gate.data * (v[part].transpose(0, 2, 1) @ blk), out=out[part])
    cols = cols.reshape(batch * length, channels)

    def backward_fn(g, need):
        if _GRAD_ENABLED:
            # recording: rebuild Q, K, V and A from x so they are on the graph
            cols_t = reshape(transpose_last(x), cols.shape)
            q_t, k_t, v_t = (
                reshape(matmul(cols_t, transpose_last(reshape(w, w.shape[:2]))),
                        (batch, length, w.shape[0]))
                for w in (wq, wk, wv))
            a_t = softmax(matmul(q_t, transpose_last(k_t)), axis=1)
        else:
            cols_t, q_t, k_t, v_t, a_t = (Tensor(arr) for arr in (cols, q, k, v, a))
        ds, r = _softmax_vjp(a_t, matmul(v_t, g), 1)
        parts = (matmul(ds, k_t), matmul(transpose_last(ds), q_t),
                 matmul(a_t, transpose_last(g)))
        grads, gx = [], None
        for w, part, needed in zip((wq, wk, wv), parts, need[1:4]):
            part = reshape(part, (batch * length, w.shape[0]))
            if needed:
                gw = transpose_last(matmul(transpose_last(cols_t), part))
                grads.append(mul(reshape(gw, w.shape), gate))
            else:
                grads.append(None)
            if need[0]:
                through = matmul(part, reshape(w, w.shape[:2]))
                gx = through if gx is None else add(gx, through)
        if need[0]:
            gx = add(g, mul(transpose_last(reshape(gx, (batch, length, channels))), gate))
        return (gx, *grads, tsum(r) if need[4] else None)

    return _record("self_attention", out, inputs, backward_fn)


# ---------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------

def _reachable(root: _Node):
    seen = set()
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        for t in node.inputs:
            if t._node is not None and id(t._node) not in seen:
                stack.append(t._node)
    order.sort(key=lambda n: n.seq)
    return order


def _walk(loss: Tensor, is_target, create_graph: bool):
    """Run the reverse sweep from ``loss`` towards the tensors for which
    ``is_target`` holds. Returns the reachable nodes and
    {id(tensor): (tensor, grad Tensor)} for the leaves and targets that got
    a gradient.

    Nodes come in recording order, so one forward pass marks each node
    live when one of its inputs is a target or was produced by a live
    node. Only live nodes run their backward closure, which gets one flag
    per input saying whether that input needs a gradient. A node's output
    gradient is complete before its closure runs, since every user of the
    output was recorded later; the sweep lets go of it as soon as the
    closure has run, unless the caller asked for it (a target, which may
    be the loss itself), so the sweep holds only the gradients still
    waiting for their node's closure and those of leaves and targets.
    Raises TapeError if backward() already consumed any node on the way.
    The ops the sweep runs are not screened for non-finite values (see
    _SWEEPING); the caller screens the gradients it returns.
    """
    global _SWEEPING
    nodes = _reachable(loss._node)
    if any(node.consumed for node in nodes):
        raise TapeError("this recording was already consumed by a previous backward")
    live = set()
    plan = []
    for node in nodes:
        need = tuple(is_target(t) or (t._node is not None and id(t._node) in live)
                     for t in node.inputs)
        if any(need):
            live.add(id(node))
            plan.append((node, need))
    ctx = nullcontext() if create_graph else no_grad()
    prev, _SWEEPING = _SWEEPING, True
    try:
        tensors = {id(loss): loss}
        acc = {id(loss): Tensor(np.ones_like(loss.data))}
        with ctx:
            for node, need in reversed(plan):
                _sweep_node(node, need, is_target, tensors, acc)
    finally:
        _SWEEPING = prev
    return nodes, {k: (tensors[k], acc[k]) for k in acc}


def _sweep_node(node: _Node, need: tuple, is_target, tensors: dict, acc: dict):
    """One node of _walk's sweep: take the node's output gradient from
    ``acc`` (it stays there only if the output is a target), run the
    closure and add what it returns into the gradients of its inputs.
    ``tensors`` maps the id of every tensor in ``acc`` to the tensor. A
    function, so the gradients it holds are let go when it returns."""
    out_id = node.out_id
    if out_id not in acc:
        return
    if is_target(tensors[out_id]):
        g = acc[out_id]
    else:
        g = acc.pop(out_id)
        del tensors[out_id]
    for t, ig in zip(node.inputs, node.backward_fn(g, need)):
        if ig is None:
            continue
        if id(t) in acc:
            acc[id(t)] = add(acc[id(t)], ig)
        else:
            acc[id(t)] = ig
            tensors[id(t)] = t


def _check_scalar(loss: Tensor):
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        raise TapeError("tensor was not produced by a recorded op (nothing to differentiate)")


def _is_trainable_leaf(t: Tensor) -> bool:
    return t._node is None and t.requires_grad


def backward(loss: Tensor):
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every leaf tensor
    (one not produced by a recorded op) that requires gradients and was
    used to compute ``loss``. Gradients of intermediate tensors are not
    retained; use grad() to query those. The sweep computes only the
    branches that lead to such leaves: a leaf whose ``requires_grad`` is
    off (a frozen parameter) gets no gradient and costs none. It frees each
    intermediate gradient, the loss's own included, as soon as the closure
    of the node that produced that tensor has read it, so a long chain of
    ops holds a few gradients at a time, not one per op.

    Consumes the recording: running backward or grad() again over any of
    the same nodes raises TapeError until a fresh forward pass re-records
    them. Consumed nodes drop their inputs and closures, so the arrays the
    recording held are freed as soon as backward returns.

    Raises NonFiniteError ("backward produced ...") if a leaf gradient is
    not finite, before any ``.grad`` changes. This one screen stands in for
    checks on the ops the sweep runs, so the error does not name the op
    where the value was born.
    """
    _check_scalar(loss)
    nodes, collected = _walk(loss, _is_trainable_leaf, create_graph=False)
    leaves = [(t, g) for t, g in collected.values() if t._node is None]
    for _, g in leaves:  # all first: a failure leaves every .grad as it was
        _check_finite(g.data, "backward")
    for t, g in leaves:
        if t.grad is None:
            t.grad = g.data.copy()
        else:
            t.grad = t.grad + g.data
    for node in nodes:
        # a consumed node cannot run again, so it lets go of its inputs and
        # closure; whatever only the recording kept alive is freed now
        node.consumed = True
        node.inputs = ()
        node.backward_fn = None


def grad(output: Tensor, inputs, create_graph: bool = False):
    """Return d(output)/d(input) for each tensor in ``inputs`` without
    touching ``.grad`` or consuming the recording.

    With ``create_graph=True`` the returned tensors are themselves recorded,
    so they can be differentiated again (double backward). The sweep
    computes only the branches that lead to ``inputs``; gradients of other
    tensors, such as the weights of a network differentiated with respect
    to its input, are neither computed nor recorded. An input that does not
    require gradients, or that ``output`` does not depend on, gets zeros.
    Raises TapeError if backward() already consumed part of the recording,
    and NonFiniteError ("grad produced ...") if a returned gradient is not
    finite; as in backward(), the ops of the sweep are not checked one by
    one.
    """
    _check_scalar(output)
    inputs = list(inputs)
    wanted = {id(t) for t in inputs if t.requires_grad}
    _, collected = _walk(output, lambda t: id(t) in wanted, create_graph=create_graph)
    out = []
    for t in inputs:
        entry = collected.get(id(t))
        if entry is None:
            out.append(Tensor(np.zeros_like(t.data)))
        else:
            _check_finite(entry[1].data, "grad")
            out.append(entry[1])
    return out

"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy float64 array,
every differentiable operation appends one node to the active ``Tape``, and
``backward`` replays the tape in reverse (execution order reversed is a
reverse topological order, so each node is visited exactly once).

Besides elementwise, reduction and layout ops, the model's layers use a
dense ``conv2d`` ([B, C, H, W] maps, im2col + matmul; a 1x1 stride-1 kernel
multiplies the map itself), a channels-last ``depthwise_conv2d`` ([B, H, W, C]
maps; per slab of rows one einsum of the k*k taps, and for the input gradient
one gather with the taps flipped), ``bilinear_upsample2x``, ``swap_halves``
for cross attention, and ``window_dot``, the one op of fine refinement's
window logits (``window_gather`` crops whole windows but has no model caller).

Four ops fuse what the model always runs back to back, so that less float64
traffic goes through memory and fewer nodes go on the tape:

- ``linear(x, w, b)`` is ``add(matmul(x, w), b)`` with the bias added in
  place into the fresh product (every ``blocks.Linear``), and a large
  C-contiguous ``x`` of more than 2 dims runs as one 2-D GEMM, same bits;
- ``depthwise_gelu(x, w, b)`` is ``gelu(depthwise_conv2d(x, w, b))`` on the
  conv's slab loop: taps, bias and GELU while the slab is in cache
  (``blocks.MixFFN``), with ``gelu``'s maths (``_gelu_into``, ``_gelu_grad``);
- ``linear_attention(q, k, v, heads)`` and ``attention(q, k, v, heads)`` are
  the attention cores of ``blocks.Attention``: head split, softmaxes,
  products and merge of the [B, N, C] projections as one node.
  ``attention`` runs blocks of query rows and recomputes each block's
  probabilities in its backward, so no N x M array is held.

``linear``, ``depthwise_gelu`` and ``linear_attention`` equal their unfused
chains bit for bit, forward and backward, gradient memory layouts included.
So does ``attention`` within one row block; over several, a block's GEMM
can round differently from one GEMM over all rows, and the key and value
gradients add up block by block, which can move the last bits.

A reduction over an innermost axis shorter than 8 (``_reduce_keep``), such
as linear attention's feature softmax over 4-wide heads, runs as one ufunc
call per element along that axis, with the bits of ``ufunc.reduce``.

The ops call numpy's C entry points: ufuncs and ``ufunc.reduce`` (not
``.sum``/``.mean``/``.max``/``.all``, which run numpy's Python-level
``_methods``), ``np.matmul``, and the ``np.ndarray`` constructor for strided
window views (not ``as_strided`` or ``sliding_window_view``).  No einsum path
search runs per call.  At toy widths the fixed cost of those wrappers was a
large share of an op's time.

Supported broadcasting is restricted to the two cases the model needs:
scalars, and a smaller operand whose shape equals the trailing dimensions of
the larger one (bias adds, affine gains).  Anything else is a shape error.

Every op leaves through ``_op``, the one place where a tape node is made
(``matcher.dual_softmax_nll``, the coarse loss, is the one op defined outside
this module).  It tests the result for NaN/Inf and raises ``NumericalError``
at once rather than let non-finite values propagate; the layout and gather ops
(``_UNCHECKED_OPS``), whose outputs only move, pick or clamp input values,
skip the test.  Nodes carry their op's name, which is also the key for fault
injection: ``inject_fault(name)`` makes ``backward`` scale the incoming
gradient of that op's nodes, the negative control of ``matchformer selftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericalError(ArithmeticError):
    """A forward computation produced NaN or Inf from finite inputs."""


# Every op that records tape nodes, by the name its nodes carry.  Layout and
# gather ops (and the clip) only move, pick or clamp input values, so their
# outputs skip the finiteness test; every other op's output takes it.
_UNCHECKED_OPS = frozenset((
    "maximum_scalar", "reshape", "transpose", "concat", "slice_", "swap_halves",
    "take_pairs", "window_gather"))
_OPS = _UNCHECKED_OPS | frozenset((
    "add", "sub", "mul", "div", "exp", "log", "sqrt", "sigmoid", "gelu",
    "reduce_sum", "matmul", "linear", "softmax", "layer_norm", "l2_normalize",
    "window_dot", "conv2d", "depthwise_conv2d", "depthwise_gelu",
    "bilinear_upsample2x", "attention", "linear_attention",
    "dual_softmax_nll"))  # matcher's streamed coarse loss

# Fault injection for the self-test negative control: ``backward`` scales the
# incoming gradient of the faulted ops' nodes by FAULT_SCALE.
FAULT_SCALE = 1.01
_FAULT: set[str] = set()


def inject_fault(op_name: str) -> None:
    if op_name not in _OPS:
        raise ValueError(f"unknown op {op_name!r} for fault injection; "
                         f"valid ops: {', '.join(sorted(_OPS))}")
    _FAULT.add(op_name)


def clear_faults() -> None:
    _FAULT.clear()


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    name: str
    out: "Tensor"
    parents: tuple
    backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class Tape:
    """Ordered log of executed differentiable operations."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def append(self, node: _Node) -> None:
        self.nodes.append(node)

    def clear(self) -> None:
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


_ACTIVE_TAPE = Tape()
_GRAD_ENABLED = True


def active_tape() -> Tape:
    return _ACTIVE_TAPE


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class tape_scope:
    """Context manager that empties the tape when its body raises, so the
    nodes of an abandoned forward pass do not keep activations alive."""

    def __enter__(self):
        return _ACTIVE_TAPE

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            _ACTIVE_TAPE.clear()
        return False


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Dense n-dimensional float64 array with optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_g", "_from_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._g: Optional[np.ndarray] = None  # transient grad during backward
        self._from_op = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents: tuple) -> bool:
    """Whether an op over ``parents`` records a tape node (asked by ``_op``,
    and by ``depthwise_gelu`` to size its pre-activation and tanh)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _op(name: str, value: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """The one exit of every tape op: test ``value`` for NaN/Inf (unless the
    op is in ``_UNCHECKED_OPS``), wrap it, and record a tape node when any
    parent needs a gradient."""
    if name not in _UNCHECKED_OPS and not np.logical_and.reduce(np.isfinite(value), axis=None):
        raise NumericalError(f"{name} produced non-finite values")
    out = Tensor(value)
    if _recording(parents):
        out.requires_grad = True
        out._from_op = True
        _ACTIVE_TAPE.append(_Node(name, out, parents, backward_fn))
    return out


def _accumulate(parent: Tensor, g: Optional[np.ndarray]) -> None:
    if g is None or not parent.requires_grad:
        return
    if parent._from_op:
        parent._g = g if parent._g is None else parent._g + g
    elif parent.grad is None:
        parent.grad = g.copy()
    else:
        parent.grad += g  # in place: a leaf bound to a buffer keeps receiving it


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    A leaf, ``loss`` included, gets a copy of its first contribution and adds
    every later one into its ``grad`` in place.

    Consumes (clears) the active tape.  ``loss`` must be a scalar, and a
    non-leaf ``loss`` must still have its graph on the tape: a second
    ``backward`` of the same loss raises ``RuntimeError``.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = _ACTIVE_TAPE
    if not loss._from_op:
        _accumulate(loss, np.ones_like(loss.data))
        tape.clear()
        return
    loss._g = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = node.out._g
        node.out._g = None
        if g is None:
            continue
        if _FAULT and node.name in _FAULT:
            g = g * FAULT_SCALE  # every VJP is linear in g
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            _accumulate(parent, pg)
    tape.clear()
    if loss._g is not None:  # no node made it: its graph was already consumed
        loss._g = None
        raise RuntimeError("backward: the graph of this loss was already consumed")


# ---------------------------------------------------------------------------
# Broadcasting helpers (scalar and trailing-dimension only)
# ---------------------------------------------------------------------------


def _broadcast_ok(sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if len(sb) == 0 or sb == (1,):
        return sa
    if len(sa) == 0 or sa == (1,):
        return sb
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise ShapeError(f"shapes {sa} and {sb} are not scalar/trailing broadcastable")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of leading-dimension broadcast)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_ok(a.shape, b.shape)
    return _op("add", a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape),
        _unbroadcast(g, b.shape),
    ))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_ok(a.shape, b.shape)
    return _op("sub", a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape),
        _unbroadcast(-g, b.shape),
    ))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_ok(a.shape, b.shape)
    return _op("mul", a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape),
        _unbroadcast(g * a.data, b.shape),
    ))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_ok(a.shape, b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = a.data / b.data
    return _op("div", val, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
    ))


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(over="ignore"):
        val = np.exp(x.data)
    return _op("exp", val, (x,), lambda g: (g * val,))


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log(x.data)
    return _op("log", val, (x,), lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(invalid="ignore"):
        val = np.sqrt(x.data)
    return _op("sqrt", val, (x,), lambda g: (g * 0.5 / val,))


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    # Stable two-branch form: never exponentiates a positive argument.
    d = x.data
    e = np.exp(-np.abs(d))
    val = np.where(d >= 0, 1.0, e) / (1.0 + e)
    return _op("sigmoid", val, (x,), lambda g: (g * val * (1.0 - val),))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_into(d: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write ``0.5 * d * (1 + t)`` into ``out`` and ``t = tanh(c * (d +
    0.044715 * d**3))`` into ``t``, with the rounding of that expression
    evaluated left to right; the backward reads ``d`` and ``t``."""
    np.multiply(d, d, out=t)
    t *= d
    t *= 0.044715
    t += d
    t *= _GELU_C
    np.tanh(t, out=t)
    np.multiply(d, 0.5, out=out)
    out *= 1.0 + t


def _gelu_grad(g: np.ndarray, d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradient of tanh-GELU at ``d``, given ``t`` from ``_gelu_into``."""
    sech2 = 1.0 - t * t
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * d * d)
    return g * (0.5 * (1.0 + t) + 0.5 * d * sech2 * dinner)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU."""
    x = _as_tensor(x)
    d = x.data
    t, val = np.empty(d.shape), np.empty(d.shape)
    _gelu_into(d, t, val)
    return _op("gelu", val, (x,), lambda g: (_gelu_grad(g, d, t),))


def maximum_scalar(x: Tensor, floor: float) -> Tensor:
    """Elementwise ``max(x, floor)``; gradient is zero where clipped."""
    x = _as_tensor(x)
    mask = x.data > floor
    return _op("maximum_scalar", np.where(mask, x.data, floor), (x,),
               lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axis = _norm_axis(axis, x.ndim)

    def bwd(g):
        if axis is not None and not keepdims:
            g = g.reshape([1 if a in axis else n for a, n in enumerate(x.shape)])
        dx = np.empty(x.shape)
        dx[...] = g
        return (dx,)

    return _op("reduce_sum", np.add.reduce(x.data, axis=axis, keepdims=keepdims), (x,), bwd)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    ax = _norm_axis(axis, x.ndim)
    count = x.size if ax is None else int(np.prod([x.shape[a] for a in ax]))
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# Matrix multiply and softmax
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``a[..., M, K] @ b[..., K, N]``.

    Leading batch dimensions must agree, or one operand may be a plain
    2-D matrix (the weight-matrix case).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul("matmul", a, b)
    return _op("matmul", np.matmul(a.data, b.data), (a, b),
               lambda g: _matmul_grads(g, a, b))


# Multiply-adds from which ``linear`` runs a C-contiguous batch of rows as one
# 2-D GEMM, which packs the weight once, not once per leading index.  With
# OpenBLAS 0.3.31 on 1 thread, the one GEMM was as fast or up to 31 % faster
# at every lite-SEA 128x128 shape above this size, and up to 30 % slower at
# the toy model's shapes, all below it.
_LINEAR_GEMM_MACS = 1 << 22


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x[..., K] @ w[K, N] + b[N]`` as one op: the bias is added in place
    into the fresh product, so no second output array is written."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.ndim != 2:
        raise ShapeError(f"linear needs a 2-D weight, got {w.shape}")
    _check_matmul("linear", x, w)
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias must have shape {w.shape[1:]}, got {b.shape}")
    if (x.ndim > 2 and x.size * w.shape[1] >= _LINEAR_GEMM_MACS
            and x.data.flags.c_contiguous):
        val = np.matmul(x.data.reshape(-1, x.shape[-1]), w.data)
        val = val.reshape(*x.shape[:-1], w.shape[1])
    else:
        val = np.matmul(x.data, w.data)
    val += b.data
    return _op("linear", val, (x, w, b),
               lambda g: (*_matmul_grads(g, x, w), _unbroadcast(g, b.shape)))


def _check_matmul(name: str, a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{name} operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{name} inner dims differ: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"{name} batch dims differ: {a.shape} @ {b.shape}")


def _matmul_grads(g: np.ndarray, a: Tensor, b: Tensor) -> tuple:
    """Gradients of ``a @ b`` for both operands."""
    ga = np.matmul(g, b.data.swapaxes(-1, -2))
    gb = np.matmul(a.data.swapaxes(-1, -2), g)
    return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))


# Below this many elements numpy's pairwise sum adds in order, and
# ``ufunc.reduce`` over an innermost axis runs one inner loop per row.
_SHORT_AXIS = 8


def _reduce_keep(ufunc, x: np.ndarray, ax: int) -> np.ndarray:
    """``ufunc.reduce(x, axis=ax, keepdims=True)`` for ``np.add`` or
    ``np.maximum``, bit for bit.  An innermost axis shorter than
    ``_SHORT_AXIS`` is reduced by one ufunc call per element along it, in
    order, from ``np.add``'s identity 0.0 (the per-row loop took 20 times the
    time of the ``exp`` on LA's [2, 8, 256, 4] head features)."""
    n = x.shape[ax]
    if ax != x.ndim - 1 or n >= _SHORT_AXIS:
        return ufunc.reduce(x, axis=ax, keepdims=True)
    out = x[..., :1] + 0.0 if ufunc is np.add else x[..., :1].copy()
    for i in range(1, n):
        ufunc(out, x[..., i:i + 1], out=out)
    return out


def _softmax(x: np.ndarray, ax: int) -> np.ndarray:
    """Max-subtracted softmax of ``x`` along ``ax``, built in one fresh array."""
    e = x - _reduce_keep(np.maximum, x, ax)
    np.exp(e, out=e)
    e /= _reduce_keep(np.add, e, ax)
    return e


def _softmax_grad(g: np.ndarray, y: np.ndarray, ax: int) -> np.ndarray:
    """Input gradient of a softmax ``y`` along ``ax`` for output gradient ``g``."""
    return y * (g - _reduce_keep(np.add, g * y, ax))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    x = _as_tensor(x)
    ax = axis % x.ndim
    y = _softmax(x.data, ax)
    return _op("softmax", y, (x,), lambda g: (_softmax_grad(g, y, ax),))


# ---------------------------------------------------------------------------
# Attention cores
# ---------------------------------------------------------------------------


def _check_attention(name: str, q: Tensor, k: Tensor, v: Tensor, heads: int) -> None:
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise ShapeError(f"{name} needs q[B,N,C] and k, v[B,M,C], got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    if q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ShapeError(f"{name} batch or width differs: {q.shape} vs {k.shape}")
    if heads < 1 or q.shape[2] % heads:
        raise ShapeError(f"{name}: width {q.shape[2]} not divisible by {heads} heads")


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[B, N, C] -> a [B, heads, N, C / heads] view."""
    b, n, c = x.shape
    return x.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3)


def linear_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Linear attention (Katharopoulos et al., arXiv 2006.16236) per head:
    ``softmax_feat(Q) (softmax_pos(K)^T V)`` of the [B, N, C] queries and
    [B, M, C] keys and values, returned as merged [B, N, C].  Never holds an
    N x M array.  The values and gradients equal the chain of head splits,
    softmaxes, products and merge bit for bit."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_attention("linear_attention", q, k, v, heads)
    b, n, c = q.shape
    m, d = k.shape[1], c // heads
    # the feature softmax runs over the d-wide rows of q's [B*N*heads, d]
    # view and the position softmax over k's axis 1, each in its memory order
    qn, kn = _softmax(q.data.reshape(-1, d), 1), _softmax(k.data, 1)
    qh, kh, vh = _heads(qn.reshape(b, n, c), heads), _heads(kn, heads), _heads(v.data, heads)
    ctx = np.matmul(kh.swapaxes(-1, -2), vh)           # [B, heads, d, d]
    out = np.empty((b, n, c))
    np.matmul(qh, ctx, out=_heads(out, heads))

    def bwd(g):
        gy = _heads(g, heads)
        gctx = np.matmul(qh.swapaxes(-1, -2), gy)
        gqn, gv = np.empty((b, n, c)), np.empty((b, m, c))
        np.matmul(gy, ctx.swapaxes(-1, -2), out=_heads(gqn, heads))
        np.matmul(kh, gctx, out=_heads(gv, heads))
        gkn = np.matmul(gctx, vh.swapaxes(-1, -2)).transpose(0, 3, 1, 2).reshape(b, m, c)
        return (_softmax_grad(gqn.reshape(-1, d), qn, 1).reshape(b, n, c),
                _softmax_grad(gkn, kn, 1), gv)

    return _op("linear_attention", out, (q, k, v), bwd)


def _abs_max(a: np.ndarray) -> float:
    return np.maximum.reduce(np.abs(a), axis=None, initial=0.0)


# Query rows per block of ``attention``: a block's scores are
# [B, heads, 256, M], 4.9 MB for lite-SEA's first stage at 640x480
# (B = 2, heads = 1, M = 1200).
_ATTENTION_ROWS = 256


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Softmax attention ``softmax(Q K^T / sqrt(d)) V`` per head of the
    [B, N, C] queries and [B, M, C] keys and values, returned as merged
    [B, N, C].

    It runs blocks of ``_ATTENTION_ROWS`` query rows, so one block of scores
    is alive at a time; softmax is per row, so each block is exact.  The
    backward recomputes each block's probabilities from q, k and the saved
    row max and sum (FlashAttention's recompute, Dao et al., arXiv
    2205.14135).  A score can only overflow when d * max|q| * max|k| is
    huge; then every block is tested, and a non-finite score raises
    ``NumericalError`` as the unfused chain did.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_attention("attention", q, k, v, heads)
    b, n, c = q.shape
    d = c // heads
    scale = 1.0 / math.sqrt(d)
    qh, kh, vh = _heads(q.data, heads), _heads(k.data, heads), _heads(v.data, heads)
    kt = kh.swapaxes(-1, -2)
    blocks = [(r, min(n, r + _ATTENTION_ROWS)) for r in range(0, n, _ATTENTION_ROWS)]
    check = not d * _abs_max(q.data) * _abs_max(k.data) < 1e300

    def scores(r0: int, r1: int) -> np.ndarray:
        s = np.matmul(qh[:, :, r0:r1], kt)
        if check and not np.logical_and.reduce(np.isfinite(s), axis=None):
            raise NumericalError("attention produced non-finite scores")
        s *= scale
        return s

    keep = _recording((q, k, v))
    row_max = np.empty((b, heads, n, 1)) if keep else None
    row_sum = np.empty((b, heads, n, 1)) if keep else None
    out = np.empty((b, n, c))
    oh = _heads(out, heads)
    for r0, r1 in blocks:
        p = scores(r0, r1)
        m = _reduce_keep(np.maximum, p, 3)
        p -= m
        np.exp(p, out=p)
        s = _reduce_keep(np.add, p, 3)
        p /= s
        np.matmul(p, vh, out=oh[:, :, r0:r1])
        if keep:
            row_max[:, :, r0:r1], row_sum[:, :, r0:r1] = m, s

    def bwd(g):
        gy = _heads(g, heads)
        gq, gv = np.empty((b, n, c)), np.zeros(v.shape)
        gqh, gvh = _heads(gq, heads), _heads(gv, heads)
        gkt = np.zeros((b, heads, d, k.shape[1]))  # k^T's gradient, as the chain laid it out
        for r0, r1 in blocks:
            p = scores(r0, r1)
            p -= row_max[:, :, r0:r1]
            np.exp(p, out=p)
            p /= row_sum[:, :, r0:r1]
            gvh += np.matmul(p.swapaxes(-1, -2), gy[:, :, r0:r1])
            gp = _softmax_grad(np.matmul(gy[:, :, r0:r1], vh.swapaxes(-1, -2)), p, 3)
            gp *= scale
            np.matmul(gp, kh, out=gqh[:, :, r0:r1])
            gkt += np.matmul(qh[:, :, r0:r1].swapaxes(-1, -2), gp)
        return gq, gkt.transpose(0, 3, 1, 2).reshape(k.shape), gv

    return _op("attention", out, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


# The variance floor of every layer norm.
LAYER_NORM_EPS = 1e-6


def layer_norm(x: Tensor, gain: Tensor, offset: Tensor) -> Tensor:
    """Normalize over the last axis to mean 0 / variance 1 (variance floored
    by ``LAYER_NORM_EPS``), then affine."""
    x, gain, offset = _as_tensor(x), _as_tensor(gain), _as_tensor(offset)
    if gain.shape != x.shape[-1:] or offset.shape != x.shape[-1:]:
        raise ShapeError("layer_norm gain/offset must match the last axis")
    n = x.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    sq = xc * xc
    var = np.add.reduce(sq, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    val = np.multiply(xhat, gain.data, out=sq)   # the output reuses sq's buffer
    val += offset.data

    def bwd(g):
        sum_axes = tuple(range(g.ndim - 1))
        dgain = np.add.reduce(g * xhat, axis=sum_axes)
        doffset = np.add.reduce(g, axis=sum_axes)
        dxhat = g * gain.data
        # Fused form of the mean/variance chain rule.
        dx = inv / n * (n * dxhat
                        - np.add.reduce(dxhat, axis=-1, keepdims=True)
                        - xhat * np.add.reduce(dxhat * xhat, axis=-1, keepdims=True))
        return (dx, dgain, doffset)

    return _op("layer_norm", val, (x, gain, offset), bwd)


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale vectors along ``axis`` to unit norm; zero vectors stay zero."""
    x = _as_tensor(x)
    ax = axis % x.ndim
    norm = np.sqrt(np.add.reduce(x.data * x.data, axis=ax, keepdims=True))
    safe = np.where(norm > 0, norm, 1.0)
    y = x.data / safe

    def bwd(g):
        dot = np.add.reduce(g * y, axis=ax, keepdims=True)
        dx = (g - y * dot) / safe
        return (np.where(norm > 0, dx, 0.0),)

    return _op("l2_normalize", y, (x,), bwd)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    try:
        val = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return _op("reshape", val, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid transpose axes {axes} for ndim {x.ndim}")
    # only the backward needs the inverse permutation
    return _op("transpose", x.data.transpose(axes), (x,),
               lambda g: (g.transpose(np.argsort(axes)),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    ax = axis % ts[0].ndim
    sizes = [t.shape[ax] for t in ts]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=ax))

    return _op("concat", np.concatenate([t.data for t in ts], axis=ax), tuple(ts), bwd)


def slice_(x: Tensor, slices) -> Tensor:
    """Basic rectangular slicing; gradient scatters back into a zero buffer."""
    x = _as_tensor(x)
    slices = tuple(slices)

    def bwd(g):
        dx = np.zeros_like(x.data)
        dx[slices] = g
        return (dx,)

    return _op("slice_", x.data[slices].copy(), (x,), bwd)


def swap_halves(x: Tensor) -> Tensor:
    """Exchange the two halves of the leading axis: ``[A; B] -> [B; A]``.

    The swap is its own inverse, so the gradient is swapped back the same way.
    """
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[0] % 2:
        raise ShapeError(f"swap_halves needs an even leading axis, got shape {x.shape}")
    half = x.shape[0] // 2
    return _op("swap_halves", np.concatenate((x.data[half:], x.data[:half])), (x,),
               lambda g: (np.concatenate((g[half:], g[:half])),))


def take_pairs(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather ``x[rows[k], cols[k]]`` from a 2-D tensor into a vector."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError("take_pairs expects a 2-D tensor")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def bwd(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (rows, cols), g)
        return (dx,)

    return _op("take_pairs", x.data[rows, cols], (x,), bwd)


def _window_slots(rows: np.ndarray, cols: np.ndarray, radius: int) -> tuple:
    """Row ``[M, w, 1]`` and column ``[M, 1, w]`` of every slot of the square
    windows centred on ``(rows[m], cols[m])``, ``w = 2*radius + 1``."""
    off = np.arange(-radius, radius + 1)
    return (np.asarray(rows, dtype=np.intp)[:, None, None] + off[None, :, None],
            np.asarray(cols, dtype=np.intp)[:, None, None] + off[None, None, :])


def window_gather(x: Tensor, rows: np.ndarray, cols: np.ndarray, radius: int) -> Tensor:
    """Crop square windows from a ``[C, H, W]`` map.

    Returns ``[M, C, w, w]`` with ``w = 2*radius + 1``; every window must lie
    fully inside the map.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError("window_gather expects a [C, H, W] map")
    c, h, w = x.shape
    rr, cc = _window_slots(rows, cols, radius)
    lo, hi = np.minimum.reduce, np.maximum.reduce
    if lo(rr, axis=None, initial=0) < 0 or hi(rr, axis=None, initial=radius) > h - 1 \
            or lo(cc, axis=None, initial=0) < 0 or hi(cc, axis=None, initial=radius) > w - 1:
        raise ShapeError("window exceeds map bounds")
    gathered = x.data[:, rr, cc]                    # [C, M, w, w]

    def bwd(g):
        dx_t = np.zeros((h, w, c))
        g_t = g.transpose(0, 2, 3, 1)               # [M, w, w, C]
        np.add.at(dx_t, (rr + np.zeros_like(cc), cc + np.zeros_like(rr)), g_t)
        return (dx_t.transpose(2, 0, 1),)

    val = np.ascontiguousarray(gathered.transpose(1, 0, 2, 3))
    return _op("window_gather", val, (x,), bwd)


def window_dot(a: Tensor, b: Tensor, centers_a: np.ndarray, centers_b: np.ndarray,
               radius: int, scale: float) -> Tensor:
    """Fine refinement's window logits, ``[M, w*w]`` with ``w = 2*radius + 1``.

    Entry ``[m, t]`` is ``scale * <a[:, centers_a[m]], b[:, slot t]>`` over
    the row-major slots of the window of ``b`` around ``centers_b[m]``, read
    at the clamped cell; each slot outside ``b`` then gets -1e9 added, so a
    softmax over a row renormalizes over the cells inside the map.  ``a`` and
    ``b`` are ``[C, H, W]`` maps of one width (any H x W each), the centres
    [M, 2] integer (row, col) cells, and every A centre lies inside ``a``.
    Runs one slot at a time, so no ``[M, C, w, w]`` copy of the windows is made.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ka, kb = (np.asarray(k, dtype=np.intp) for k in (centers_a, centers_b))
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] \
            or ka.ndim != 2 or ka.shape[1] != 2 or kb.shape != ka.shape:
        raise ShapeError(f"window_dot needs two [C, H, W] maps of one width and [M, 2] "
                         f"centres, got {a.shape}, {b.shape}, {ka.shape}, {kb.shape}")
    c, ha, wa = a.shape
    _, h, w = b.shape
    if np.any((ka < 0) | (ka >= (ha, wa))):
        raise ShapeError("window_dot: an A centre lies outside its map")
    m, n = len(ka), 2 * radius + 1
    rr, cc = _window_slots(kb[:, 0], kb[:, 1], radius)
    r_in, c_in = np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)
    cells = (r_in * w + c_in).reshape(m, n * n)  # flat index of each slot's clamped cell
    floor = np.where((r_in == rr) & (c_in == cc), 0.0, -1e9).reshape(m, n * n)
    va = np.ascontiguousarray(a.data[:, ka[:, 0], ka[:, 1]].T)   # [M, C]
    xt = np.ascontiguousarray(b.data.reshape(c, h * w).T)
    val = np.empty((m, n * n))
    for t in range(n * n):
        val[:, t] = np.einsum("mc,mc->m", va, xt[cells[:, t]])
    val *= scale
    val += floor

    def bwd(g):
        g = g * scale
        dva = np.zeros_like(va)
        dxt = np.zeros_like(xt)
        for t in range(n * n):
            dva += g[:, t, None] * xt[cells[:, t]]
            np.add.at(dxt, cells[:, t], g[:, t, None] * va)
        # in match order; the [H, W, C]-then-transposed layout fixes later sums' bits
        da_t = np.zeros((ha, wa, c))
        np.add.at(da_t, (ka[:, 0], ka[:, 1]), dva)
        return (da_t.transpose(2, 0, 1), dxt.T.reshape(b.shape))

    return _op("window_dot", val, (a, b), bwd)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Dense 2-D cross-correlation (no kernel flip), zero padding, square kernels.

    ``x``: [B, C_in, H, W]; ``w``: [C_out, C_in, k, k]; ``bias``: [C_out].
    """
    x, w, bias = _as_tensor(x), _as_tensor(w), _as_tensor(bias)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects x[B,C,H,W] and w[Co,Ci,k,k]")
    b_, cin, h, wd = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError("conv2d kernels must be square with odd extent")
    if cin_w != cin:
        raise ShapeError(f"channel mismatch: x has C_in={cin}, w expects {cin_w}")
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError("conv2d output extent is non-positive")
    if bias.shape != (cout,):
        raise ShapeError("conv2d bias must have shape (C_out,)")

    wf = w.data.reshape(cout, cin * k * k)
    # one image's columns at a time; the backward rebuilds them all from x
    val = np.empty((b_, cout, ho, wo))
    for i in range(b_):
        np.matmul(wf, _im2col(_pad_hw(x.data[i:i + 1], padding), k, stride, ho, wo)[0],
                  out=val[i].reshape(cout, ho * wo))
    val += bias.data[None, :, None, None]

    def bwd(g):
        xp = _pad_hw(x.data, padding)
        cols = _im2col(xp, k, stride, ho, wo)
        gg = g.reshape(b_, cout, ho * wo)
        dw = np.add.reduce(np.matmul(gg, cols.swapaxes(-1, -2)), axis=0).reshape(w.shape)
        dcols = np.matmul(wf.T, gg).reshape(b_, cin, k, k, ho, wo)
        dxp = np.zeros(xp.shape)   # C order even when xp is a view of a strided x
        for ki in range(k):
            for kj in range(k):
                dxp[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += dcols[:, :, ki, kj]
        dx = dxp[:, :, padding:padding + h, padding:padding + wd] if padding else dxp
        return dx, dw, np.add.reduce(g, axis=(0, 2, 3))

    return _op("conv2d", val, (x, w, bias), bwd)


def _pad_hw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of a [B, C, H, W] map, in a third of
    ``np.pad``'s time on toy maps (``conv2d`` pads per image and per batch)."""
    if padding == 0:
        return x
    xp = np.zeros((*x.shape[:2], x.shape[2] + 2 * padding, x.shape[3] + 2 * padding))
    xp[:, :, padding:-padding, padding:-padding] = x
    return xp


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """[B, C, Hp, Wp] padded maps -> [B, C*k*k, Ho*Wo] im2col columns."""
    b_, cin = xp.shape[:2]
    xp = np.ascontiguousarray(xp)
    if k == 1 and stride == 1:
        return xp.reshape(b_, cin, ho * wo)
    sb, sc, sh, sw = xp.strides
    win = np.ndarray((b_, cin, k, k, ho, wo), xp.dtype, xp,
                     strides=(sb, sc, sh, sw, sh * stride, sw * stride))
    return np.ascontiguousarray(win).reshape(b_, cin * k * k, ho * wo)


# Elements of one [B, rows, W, C] slab of the depthwise loops (256 KB): each
# slab's halo and output stay in cache while its taps are summed.
_DEPTHWISE_SLAB = 1 << 15


def depthwise_conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Channels-last depthwise cross-correlation, stride 1, zero "same" padding.

    ``x``: [B, H, W, C]; ``w``: [C, 1, k, k] with odd k; ``bias``: [C].
    Per slab of output rows, one einsum sums the taps over a strided window
    view of the zero-padded slab, so no im2col buffer is built; the input
    gradient is the same gather over the output gradient, taps flipped.
    """
    return _op("depthwise_conv2d", *_depthwise("depthwise_conv2d", x, w, bias))


def depthwise_gelu(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """``gelu(depthwise_conv2d(x, w, bias))`` as one op, bit for bit.

    Each slab of output rows gets its taps, its bias and its GELU while it is
    still in cache.  The pre-activation and tanh buffers are one slab each,
    or full-size for the backward when a tape node is recorded.
    """
    return _op("depthwise_gelu", *_depthwise("depthwise_gelu", x, w, bias))


def _depthwise(name: str, x, w, bias) -> tuple:
    """Value, parents and backward of ``depthwise_conv2d`` or, for
    ``name == "depthwise_gelu"``, of that conv followed by GELU.  Every einsum
    reads the ``_halo_windows`` of one slab, of ``x`` or of the output gradient."""
    x, w, bias = _as_tensor(x), _as_tensor(w), _as_tensor(bias)
    if x.ndim != 4:
        raise ShapeError(f"{name} expects a channels-last x[B,H,W,C]")
    b_, h, wd, c = x.shape
    k = w.shape[-1] if w.ndim == 4 else 0
    if w.shape != (c, 1, k, k) or k % 2 == 0:
        raise ShapeError(f"{name} needs w[{c},1,k,k] with odd k, got {w.shape}")
    if bias.shape != (c,):
        raise ShapeError(f"{name} bias must have shape ({c},), got {bias.shape}")
    taps = np.ascontiguousarray(w.data[:, 0].transpose(1, 2, 0))  # [k, k, C]
    rows = max(1, min(h, _DEPTHWISE_SLAB // max(1, b_ * wd * c)))
    slabs = [(r, min(h, r + rows)) for r in range(0, h, rows)]

    # the zero-padded input is one slab and its halo rows, refilled per slab
    halo = np.zeros((b_, rows + k - 1, wd + k - 1, c))
    val = np.empty(x.shape)
    fused = name == "depthwise_gelu"
    # the conv sums into ``pre``, the output itself for the plain op; GELU's
    # backward reads the whole pre-activation and tanh, so a recorded node
    # keeps them full-size: recomputing them there costs a conv pass
    full = not fused or _recording((x, w, bias))
    pre = np.empty(x.shape if full else (b_, rows, wd, c)) if fused else val
    tnh = np.empty(pre.shape) if fused else None
    for r0, r1 in slabs:
        part = slice(r0, r1) if full else slice(0, r1 - r0)
        v = np.einsum("bhwcij,ijc->bhwc", _halo_windows(halo, x.data, r0, r1, k), taps,
                      out=pre[:, part])
        v += bias.data
        if fused:
            _gelu_into(v, tnh[:, part], val[:, r0:r1])

    def bwd(g):
        if fused:
            # whole map at once, so the bias gradient's sum rounds as the chain's did
            g = _gelu_grad(g, pre, tnh)
        dx, dw = np.empty(x.shape), np.zeros((k, k, c))
        for r0, r1 in slabs:
            dw += np.einsum("bhwc,bhwcij->ijc", g[:, r0:r1], _halo_windows(halo, x.data, r0, r1, k))
            np.einsum("bhwcij,ijc->bhwc", _halo_windows(halo, g, r0, r1, k), taps[::-1, ::-1],
                      out=dx[:, r0:r1])
        return dx, dw.transpose(2, 0, 1).reshape(w.shape), np.add.reduce(g, axis=(0, 1, 2))

    return val, (x, w, bias), bwd


def _halo_windows(buf: np.ndarray, x: np.ndarray, r0: int, r1: int, k: int) -> np.ndarray:
    """Rows ``r0 - p`` to ``r1 + p`` of the zero-padded [B, H, W, C] map ``x``,
    written into ``buf``, whose p-column borders stay zero, as a read-only
    [B, r1 - r0, W, C, k, k] view of its k x k windows."""
    p = k // 2
    lo, hi = max(r0 - p, 0), min(r1 + p, x.shape[1])
    top, end = lo - (r0 - p), r1 - r0 + 2 * p
    buf[:, :top] = 0.0
    buf[:, top:top + hi - lo, p:p + x.shape[2]] = x[:, lo:hi]
    buf[:, top + hi - lo:end] = 0.0
    win = np.ndarray((x.shape[0], r1 - r0, *x.shape[2:], k, k), buf.dtype, buf,
                     strides=buf.strides + buf.strides[1:3])
    win.flags.writeable = False
    return win


# ---------------------------------------------------------------------------
# Bilinear upsampling (x2, align_corners=False)
# ---------------------------------------------------------------------------

_UPSAMPLE_CACHE: dict[int, np.ndarray] = {}
# einsum's contraction path of the upsample backward, per input shape
_UPSAMPLE_BWD_PATH: dict[tuple, list] = {}


def _upsample_matrix(n: int) -> np.ndarray:
    """Dense [2n, n] interpolation matrix for one axis (edge-clamped)."""
    m = _UPSAMPLE_CACHE.get(n)
    if m is None:
        src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        lo = np.clip(np.floor(src).astype(int), 0, n - 1)
        hi = np.clip(lo + 1, 0, n - 1)
        frac = np.clip(src - np.floor(src), 0.0, 1.0)
        frac = np.where(src < 0, 0.0, np.where(src > n - 1, 1.0, frac))
        m = np.zeros((2 * n, n))
        m[np.arange(2 * n), lo] += 1.0 - frac
        m[np.arange(2 * n), hi] += frac
        _UPSAMPLE_CACHE[n] = m
    return m


def bilinear_upsample2x(x: Tensor) -> Tensor:
    """Upsample a [B, C, H, W] map to [B, C, 2H, 2W]."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError("bilinear_upsample2x expects [B, C, H, W]")
    uh, uw = _upsample_matrix(x.shape[2]), _upsample_matrix(x.shape[3])

    def bwd(g):
        # _upsample_hw(g, uh.T, uw.T) gives the same values but not einsum's
        # memory layout, which sets the summation order of the gradient sums
        # downstream: training's last bits would move.
        path = _UPSAMPLE_BWD_PATH.get(x.shape)
        if path is None:
            path = np.einsum_path("ih,bcij,jw->bchw", uh, g, uw, optimize=True)[0]
            _UPSAMPLE_BWD_PATH[x.shape] = path
        return (np.einsum("ih,bcij,jw->bchw", uh, g, uw, optimize=path),)

    return _op("bilinear_upsample2x", _upsample_hw(x.data, uh, uw), (x,), bwd)


def _upsample_hw(x: np.ndarray, uh: np.ndarray, uw: np.ndarray) -> np.ndarray:
    """``einsum("ih,bchw,jw->bcij", uh, x, uw, optimize=True)`` of a
    [B, C, H, W] map, its values bit for bit: the two GEMMs of the path
    einsum picks, which contracts the longer spatial axis first (rows on a
    tie)."""
    if uh.shape[1] >= uw.shape[1]:
        return _gemm_last(_gemm_last(x.swapaxes(2, 3), uh).swapaxes(2, 3), uw)
    return _gemm_last(_gemm_last(x, uw).swapaxes(2, 3), uh).swapaxes(2, 3)


def _gemm_last(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``t[..., n] @ m[n', n].T`` as one 2-D GEMM over all leading axes."""
    return (t.reshape(-1, t.shape[-1]) @ m.T).reshape(*t.shape[:-1], m.shape[0])


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class FdReport:
    max_rel_err: float
    tol: float
    n_checked: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.max_rel_err < self.tol


def fd_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
             tol: float = 1e-4, max_coords: Optional[int] = None,
             seed: int = 0) -> FdReport:
    """Compare the analytic gradient of scalar ``f`` at ``x`` against central
    finite differences.

    When ``max_coords`` is given, a deterministic random subset of coordinates
    is probed instead of all of them (needed for large parameter tensors).
    """
    x = _as_tensor(x)
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.size != 1:
        raise ShapeError("fd_check requires a scalar-valued function")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = probe.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        idx = np.random.default_rng(seed).choice(n, size=max_coords, replace=False)
    else:
        idx = np.arange(n)

    max_rel = 0.0
    a_flat = analytic.reshape(-1)
    with no_grad():
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(probe).data)
            flat[i] = orig - h
            fm = float(f(probe).data)
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            # the floor gives near-zero gradients absolute-error treatment,
            # where central-difference roundoff (~1e-10) would otherwise
            # dominate the quotient
            rel = abs(a_flat[i] - num) / max(abs(a_flat[i]) + abs(num), 1e-4)
            max_rel = max(max_rel, rel)
    return FdReport(max_rel_err=max_rel, tol=tol, n_checked=len(idx))

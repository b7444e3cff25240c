"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is deliberately closed: exactly what the forecasting model
needs, nothing more.  All arrays are 64-bit so finite-difference checks are
trustworthy.  Tensors are immutable once produced by an operation; gradients
accumulate on leaves during :func:`backward`.

The tape is made of ``_Node``s, apart from the tensors: a node holds its
gradient, its parents' nodes and its backward closure, and a ``Tensor``
holds its array and its node.  A closure keeps only the arrays its formula
reads (an operand, the op's own output, or a mask it formed) plus the
parents' nodes to add gradients into; it never keeps a tensor.
``attention`` projects its input to q|k|v itself and keeps that input's
array and its weight's and bias's arrays.  It keeps the projection and the
probability matrix only when both fit one backward block of
``_BLOCK_BYTES``; otherwise it keeps the softmax row max and row sum alone,
and its backward rebuilds the projection and the matrix one block at a time
from the weight and bias arrays, which must therefore not change between a
forward and its backward.  ``add``, ``sub``, ``concat``, ``reshape``,
``transpose``, ``take``, ``broadcast_to`` and the reductions keep shapes
only.  An activation that no backward formula reads, such as an attention
output consumed by ``concat``, is therefore freed as soon as the caller
drops its tensor.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError


class _Node:
    """A tape vertex: the gradient of one tensor, its parents' nodes and its backward closure.

    A leaf's node has no parents and no closure, and keeps the gradient
    :func:`backward` leaves there.
    """

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents: tuple[_Node, ...] = (), backward=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward

    def accumulate(self, g: np.ndarray, owned: bool = True) -> None:
        """Add ``g`` into ``grad``.

        ``owned`` means the op has just computed ``g`` and nothing else holds
        it, so a first gradient is adopted as is.  A pass-through or view of
        the upstream gradient (``owned=False``) is copied, because it may
        alias a buffer another node also receives or adds into.
        """
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64) if owned else np.array(g, dtype=np.float64)
        else:
            self.grad += g


class Tensor:
    """A dense float64 array that may participate in a gradient graph.

    A tensor that requires a gradient has a tape node (``_node``); any other
    has none.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node: _Node | None = _Node() if requires_grad else None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph plumbing ------------------------------------------------

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient ``backward`` left on this leaf, or None."""
        return None if self._node is None else self._node.grad

    @property
    def _backward(self):
        """This tensor's backward closure: None for a leaf or a tensor off the tape."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, index):
        return take(self, index)

    # -- convenience methods --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        perm = list(range(self.ndim))
        perm[a], perm[b] = perm[b], perm[a]
        return transpose(self, perm)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# whether ops record tape nodes; per context, so one thread's no_grad leaves the others recording
_recording: ContextVar[bool] = ContextVar("mossl_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no autodiff graph inside the block, in this context only.

    Every op still computes its output, but the result is a plain tensor:
    no parents, no backward closure, ``requires_grad`` False.  An
    intermediate array is then freed as soon as nothing reads it, instead
    of living on the tape until the result goes away.  Other threads keep
    recording; a shard started inside inherits it.  Nests, and restores the
    previous state on exit, also when the block raises.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """The tensor over ``data``, on the tape under ``backward_fn`` when a parent requires a gradient.

    The node records the parents' nodes only, so the tape holds no parent array.
    """
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out._node = _Node(tuple(p._node for p in parents if p.requires_grad), backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape the operand was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accumulate_unbroadcast(node: _Node, shape: tuple[int, ...], g: np.ndarray) -> None:
    """Pass the upstream gradient ``g`` on to ``node``, reduced to its tensor's ``shape``."""
    gx = _unbroadcast(g, shape)
    node.accumulate(gx, owned=gx is not g)


def _read_for(sink: Tensor, operand: Tensor) -> np.ndarray | None:
    """``operand``'s array when ``sink`` requires the gradient whose formula reads it, else None."""
    return operand.data if sink.requires_grad else None


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    na, nb, sa, sb = a._node, b._node, a.shape, b.shape

    def backward_fn(g):
        if na is not None:
            _accumulate_unbroadcast(na, sa, g)
        if nb is not None:
            _accumulate_unbroadcast(nb, sb, g)

    return _make(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    na, nb, sa, sb = a._node, b._node, a.shape, b.shape

    def backward_fn(g):
        if na is not None:
            _accumulate_unbroadcast(na, sa, g)
        if nb is not None:
            nb.accumulate(_unbroadcast(-g, sb))

    return _make(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    na, nb, sa, sb = a._node, b._node, a.shape, b.shape
    ad, bd = _read_for(b, a), _read_for(a, b)

    def backward_fn(g):
        if na is not None:
            na.accumulate(_unbroadcast(g * bd, sa))
        if nb is not None:
            nb.accumulate(_unbroadcast(g * ad, sb))

    return _make(out, (a, b), backward_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    na, nb, sa, sb = a._node, b._node, a.shape, b.shape
    ad, bd = _read_for(b, a), b.data

    def backward_fn(g):
        if na is not None:
            na.accumulate(_unbroadcast(g / bd, sa))
        if nb is not None:
            nb.accumulate(_unbroadcast(-g * ad / (bd * bd), sb))

    return _make(out, (a, b), backward_fn)


# -- contractions ---------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a 2-D [rows, C] array; a view when ``a`` is contiguous."""
    return a.reshape(-1, a.shape[-1])


def _shared_weight_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a 2-D ``w`` shared by every leading cell of ``x``, as one 2-D GEMM.

    numpy's stacked matmul would run one small GEMM per leading cell.
    """
    return (_rows(x) @ w).reshape(x.shape[:-1] + w.shape[-1:])


def _shared_weight_backward(g: np.ndarray, nx, nw, xd, wd) -> None:
    """Input and weight gradients of ``x @ w`` for a 2-D ``w``: one 2-D GEMM each.

    ``nx`` and ``nw`` are the operands' nodes (None when not on the tape);
    the weight gradient reads ``x``'s array ``xd``, the input gradient ``w``'s
    array ``wd``.
    """
    if nx is not None:
        nx.accumulate(_shared_weight_matmul(g, wd.T))
    if nw is not None:
        nw.accumulate(_rows(xd).T @ _rows(g))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    shared = b.ndim == 2
    out = _shared_weight_matmul(a.data, b.data) if shared else a.data @ b.data
    na, nb, sa, sb = a._node, b._node, a.shape, b.shape
    ad, bd = _read_for(b, a), _read_for(a, b)

    def backward_fn(g):
        if shared:
            _shared_weight_backward(g, na, nb, ad, bd)
            return
        if na is not None:
            na.accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), sa))
        if nb is not None:
            nb.accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb))

    return _make(out, (a, b), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """Fused x @ weight + bias with optional relu: one graph node.

    ``weight`` is [C_in, C_out], ``bias`` is [C_out]; both shared across all
    leading axes of ``x``, so every product is one 2-D GEMM over the rows of
    ``x`` (a view when ``x`` is contiguous).
    """
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear extents differ: input {x.shape} vs weight {weight.shape}")
    out = _shared_weight_matmul(x.data, weight.data)
    out += bias.data
    if relu:
        np.fmax(out, 0.0, out=out)
    nx, nw, nb = x._node, weight._node, bias._node
    xd, wd = _read_for(weight, x), _read_for(x, weight)

    def backward_fn(g):
        gpre = g * (out > 0.0) if relu else g
        _shared_weight_backward(gpre, nx, nw, xd, wd)
        if nb is not None:
            nb.accumulate(_rows(gpre).sum(axis=0))

    return _make(out, (x, weight, bias), backward_fn)


# Widest row for which ``_row_max`` takes the running ``np.maximum`` over the
# columns instead of ``np.max``, whose per-row cost dominates short rows.
# Measured (2304 and 6272 rows, 2-core VM), loop / np.max: 0.05 at A=3,
# 0.08-0.11 at A=6, 0.25-0.44 at A=16, 0.81-0.86 at A=32, 0.96-1.17 at A=48,
# 1.31-1.44 at A=98.
_ROW_MAX_COLUMNS = 32

# Bytes of one ``attention`` backward block: the lead cells whose q|k|v
# projection and P fit it are rebuilt and differentiated together, so they
# stay in one core's L2 (2 MiB per core on the 2-core VM).  Measured there,
# forward + backward of one paper-shape attention ([1, 16, 98, 4, 48], one
# BLAS thread, best of 24): over modalities 24.4 ms at 64 KiB, 20.6-21.2 ms
# at 256 KiB-2 MiB, 23.4 ms at 4 MiB, 17.7 ms keeping q|k|v and P; over
# nodes 34.9-37.4 ms at 64 KiB-2 MiB, 39.7 ms at 4 MiB, 36.9 ms keeping.
# Benchmark paper-train peak_rss_mb (two 20 s runs each): 207-212 MB at
# 256 KiB-2 MiB, 243-246 MB at 4 MiB, 330-337 MB at 16 MiB, where every
# attention fits one block, and 256-258 MB when only attentions wider than
# their channels rebuilt; op_s.p50 stayed within run-to-run noise.
_BLOCK_BYTES = 2 * 2**20


def _row_max(p: np.ndarray) -> np.ndarray:
    """``np.max(p, axis=-1, keepdims=True)``, bit for bit, NaN, inf and signed zeros included."""
    if p.shape[-1] > _ROW_MAX_COLUMNS:
        return np.max(p, axis=-1, keepdims=True)
    out = p[..., :1].copy()
    for j in range(1, p.shape[-1]):
        np.maximum(out, p[..., j : j + 1], out=out)
    return out


def attention(x: Tensor, weight: Tensor, bias: Tensor, axis: int) -> Tensor:
    """Scaled dot-product self-attention over ``axis`` of relu(x @ weight + bias), read as q|k|v.

    ``weight`` is [C_in, 3C] and ``bias`` [3C], shared by every leading cell
    of ``x`` as in ``linear``; channels ``[:C]``, ``[C:2C]`` and ``[2C:]`` of
    the projection hold q, k and v.  Every slot on the attended axis mixes
    the values of all slots on that axis at fixed positions of the other
    axes with weights P = softmax(q k^T / sqrt(C)); the output is [..., C]
    with the attended axis in place.

    One graph node.  It keeps the arrays of ``x``, ``weight`` and ``bias``,
    not its output.  The axes before ``axis`` are its lead cells, and a
    backward block is as many of them as fit ``_BLOCK_BYTES`` with their
    projection and P.  When every lead cell fits one block, the node also
    keeps the projection and P.  Otherwise it keeps only P's row max and row
    sum ([..., A, 1] each), and the backward rebuilds the projection and
    then P one block at a time, by the same ops in the same order, so P and
    every gradient are the same bits either way.  The rebuild reads the
    weight and bias arrays at backward time, so they must not change
    between the forward and its backward.  Each block forms
    dS = P * (dP - rowsum(dP * P)) as in the FlashAttention backward and
    writes its slice of one [..., 3C] gradient buffer; the projection's
    gradients then run once over that buffer by ``linear``'s formulas.
    """
    axis = axis % x.ndim
    if axis == x.ndim - 1:
        raise ShapeError(f"attention needs an axis other than the channels of {x.shape}")
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0] or weight.shape[1] % 3:
        raise ShapeError(
            f"attention needs a [C_in, 3C] weight for input {x.shape}, got {weight.shape}"
        )
    c = weight.shape[1] // 3
    scale = 1.0 / math.sqrt(c)
    xd, wd, bd = x.data, weight.data, bias.data
    nx, nw, nb = x._node, weight._node, bias._node

    def project(xc: np.ndarray) -> np.ndarray:
        """relu(xc @ weight + bias) by ``linear``'s ops."""
        qkv = _shared_weight_matmul(xc, wd)
        qkv += bd
        np.fmax(qkv, 0.0, out=qkv)
        return qkv

    def views(qkv: np.ndarray, at: int) -> tuple[np.ndarray, ...]:
        """q, k and v of a projection attended along ``at``, as [..., A, C] views."""
        moved = np.swapaxes(qkv, at, -2)
        return moved[..., :c], moved[..., c : 2 * c], moved[..., 2 * c :]

    def probabilities(q, k, row_max=None, row_sum=None) -> tuple[np.ndarray, ...]:
        """P, its row max and its row sum; a rebuild passes the forward's max and sum in."""
        p = q @ np.swapaxes(k, -1, -2)
        p *= scale
        if row_max is None:
            row_max = _row_max(p)
        p -= row_max
        np.exp(p, out=p)
        if row_sum is None:
            row_sum = np.sum(p, axis=-1, keepdims=True)
        p /= row_sum
        return p, row_max, row_sum

    def backward_into(grad, g, qkv, p, at: int) -> None:
        """Into ``grad``, the gradient of the pre-relu projection ``qkv`` given the output's ``g``."""
        q, k, v = views(qkv, at)
        g = np.swapaxes(g, at, -2)
        gm = np.swapaxes(grad, at, -2)
        np.matmul(np.swapaxes(p, -1, -2), g, out=gm[..., 2 * c :])
        ds = g @ np.swapaxes(v, -1, -2)  # dP
        ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
        ds *= p
        ds *= scale
        np.matmul(ds, k, out=gm[..., :c])
        np.matmul(np.swapaxes(ds, -1, -2), q, out=gm[..., c : 2 * c])
        grad *= qkv > 0.0  # the relu's pass-through mask

    qkv = project(xd)
    q, k, v = views(qkv, axis)
    p, row_max, row_sum = probabilities(q, k)
    out = np.swapaxes(p @ v, axis, -2)
    cells = math.prod(x.shape[:axis])
    block = _BLOCK_BYTES // max(1, math.prod(x.shape[axis:-1]) * (3 * c + x.shape[axis]) * 8)
    one_block = block >= cells
    kept = (qkv, p) if one_block else (row_max, row_sum)

    def backward_fn(g):
        grad = np.empty(g.shape[:-1] + (3 * c,))
        if one_block:
            backward_into(grad, g, *kept, axis)
        else:
            # lead cells merged into axis 0, so the attended axis is axis 1
            xc, gc, gradc, row_max, row_sum = (
                a.reshape((cells,) + a.shape[axis:]) for a in (xd, g, grad) + kept
            )
            step = max(block, 1)
            for start in range(0, cells, step):
                cut = slice(start, start + step)
                qkv = project(xc[cut])
                p = probabilities(*views(qkv, 1)[:2], row_max[cut], row_sum[cut])[0]
                backward_into(gradc[cut], gc[cut], qkv, p, 1)
        _shared_weight_backward(grad, nx, nw, xd, wd)
        if nb is not None:
            nb.accumulate(_rows(grad).sum(axis=0))

    return _make(out, (x, weight, bias), backward_fn)


# -- nonlinearities -------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    # fmax, not maximum, so NaN maps to 0; the subgradient at 0 is defined
    # as 0, so out > 0 is the pass-through mask
    out = np.fmax(x.data, 0.0)
    node = x._node

    def backward_fn(g):
        node.accumulate(g * (out > 0.0))

    return _make(out, (x,), backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: e / (1 + e) for z < 0, 1 / (1 + e) for z >= 0,
    # where e <= 1 makes max(e, 1) the numerator; NaN stays NaN, and a 0-d z
    # still gives an array
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = np.maximum(e, z >= 0, out=np.empty_like(z))
    out /= d
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)
    node = x._node

    def backward_fn(g):
        node.accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward_fn)


def gated_tanh(x: Tensor) -> Tensor:
    """tanh of the first half of the channels times sigmoid of the second: [..., 2C] -> [..., C].

    The node keeps the two halves' activations, not its input.
    """
    if x.shape[-1] % 2:
        raise ShapeError(f"gated_tanh needs an even channel count, got {x.shape}")
    c = x.shape[-1] // 2
    t = np.tanh(x.data[..., :c])
    s = _sigmoid(x.data[..., c:])
    node, shape = x._node, x.shape

    def backward_fn(g):
        grad = np.empty(shape)
        grad[..., :c] = g * s * (1.0 - t * t)
        grad[..., c:] = g * t * s * (1.0 - s)
        node.accumulate(grad)

    return _make(t * s, (x,), backward_fn)


def log_sigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) without intermediate underflow."""
    z = x.data
    out = np.where(z >= 0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z))))
    node = x._node

    def backward_fn(g):
        node.accumulate(g * _sigmoid(-z))

    return _make(out, (x,), backward_fn)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    node = x._node

    def backward_fn(g):
        node.accumulate(g * out)

    return _make(out, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        worst = float(np.min(x.data))
        raise DomainError(f"log of non-positive input (min value {worst})")
    out = np.log(x.data)
    z, node = x.data, x._node

    def backward_fn(g):
        node.accumulate(g / z)

    return _make(out, (x,), backward_fn)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through strictly inside."""
    out = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)
    node = x._node

    def backward_fn(g):
        node.accumulate(g * mask)

    return _make(out, (x,), backward_fn)


# -- shape manipulation ---------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = x.data.reshape(shape)
    node, x_shape = x._node, x.shape

    def backward_fn(g):
        node.accumulate(g.reshape(x_shape), owned=False)

    return _make(out, (x,), backward_fn)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    out = np.transpose(x.data, axes)
    inverse = np.argsort(axes)
    node = x._node

    def backward_fn(g):
        node.accumulate(np.transpose(g, inverse), owned=False)

    return _make(out, (x,), backward_fn)


def take(x: Tensor, index) -> Tensor:
    """Slice/int indexing, or one array of unique indices; gradient scatters back into place."""
    out = x.data[index]
    node, shape = x._node, x.shape

    def backward_fn(g):
        full = np.zeros(shape)
        full[index] = g
        node.accumulate(full)

    return _make(np.array(out, copy=True), (x,), backward_fn)


def broadcast_to(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = np.broadcast_to(x.data, shape).copy()
    node, x_shape = x._node, x.shape

    def backward_fn(g):
        _accumulate_unbroadcast(node, x_shape, g)

    return _make(out, (x,), backward_fn)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    nodes = [p._node for p in parts]

    def backward_fn(g):
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                node.accumulate(g[tuple(idx)], owned=False)

    return _make(out, tuple(parts), backward_fn)


# -- reductions -----------------------------------------------------------


def _norm_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, x.ndim)
    out = np.sum(x.data, axis=axis, keepdims=keepdims)
    node, shape = x._node, x.shape

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        node.accumulate(np.broadcast_to(g, shape).copy())

    return _make(out, (x,), backward_fn)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, x.ndim)
    out = np.mean(x.data, axis=axis, keepdims=keepdims)
    count = x.size if axis is None else int(np.prod([x.shape[a] for a in axis]))
    node, shape = x._node, x.shape

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        node.accumulate(np.broadcast_to(g, shape) / count)

    return _make(out, (x,), backward_fn)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Row-stochastic along ``axis``; max-subtraction keeps exp in range."""
    axis = axis % x.ndim
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)
    node = x._node

    def backward_fn(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        node.accumulate((g - inner) * out)

    return _make(out, (x,), backward_fn)


def logsumexp(x: Tensor, axis: int) -> Tensor:
    """log(sum(exp(x))) along ``axis``, computed via max shifting."""
    axis = axis % x.ndim
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    inner = log(reduce_sum(exp(sub(x, shift)), axis=axis, keepdims=True))
    shape = list(x.shape)
    del shape[axis]
    return reshape(add(inner, shift), shape)


# -- temporal convolution ---------------------------------------------------


def _as_slice(index: np.ndarray):
    """An evenly spaced index array as the equivalent slice, so reading it takes a view."""
    step = int(index[1] - index[0]) if len(index) > 1 else 1
    start, stop = int(index[0]), int(index[-1]) + 1
    if start >= 0 and step > 0 and np.array_equal(index, np.arange(start, stop, step)):
        return slice(start, stop, step)
    return index


def dilated_causal_conv(x: Tensor, kernel: Tensor, taps: Sequence, axis: int = -2) -> Tensor:
    """Causal convolution along the time axis of ``x``, computing only the requested output steps.

    ``x`` is [..., T, *cells, C_in] with time at ``axis`` and channels last,
    ``kernel`` is [k, C_in, C_out].  ``taps`` holds one index array per kernel
    tap, all of length T'; output step i is the sum over taps j of input step
    ``taps[j][i]`` times ``kernel[j]``, so the output is [..., T', *cells, C_out].
    Indices within one tap must be unique.
    """
    if kernel.ndim != 3:
        raise ShapeError(f"conv kernel must be [k, C_in, C_out], got {kernel.shape}")
    if x.shape[-1] != kernel.shape[1]:
        raise ShapeError(f"conv channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    axis = axis % x.ndim
    if axis == x.ndim - 1:
        raise ShapeError(f"conv time axis must not be the channel axis of {x.shape}")
    k, c_in, c_out = kernel.shape
    if len(taps) != k:
        raise ShapeError(f"conv needs one tap per kernel tap: {len(taps)} for {kernel.shape}")
    lengths = [len(tap) for tap in taps]
    if len(set(lengths)) != 1 or lengths[0] == 0:
        raise ShapeError(f"conv taps must be non-empty and equally long, got lengths {lengths}")
    t_out = lengths[0]
    taps = [_as_slice(np.asarray(tap)) for tap in taps]
    lead, cells = x.shape[:axis], x.shape[axis + 1 : -1]
    steps = [(slice(None),) * axis + (tap,) for tap in taps]

    def read(j: int) -> np.ndarray:
        # cell axes merged into one: a view of a slice tap, one GEMM per time step
        return x.data[steps[j]].reshape(lead + (t_out, -1, c_in)) if cells else x.data[steps[j]]

    out = read(0) @ kernel.data[0]
    for j in range(1, k):
        out += read(j) @ kernel.data[j]
    out = out.reshape(lead + (t_out,) + cells + (c_out,))
    nx, nk, shape = x._node, kernel._node, x.shape
    xd, kd = _read_for(kernel, x), _read_for(x, kernel)

    def backward_fn(g):
        if nx is not None:
            gx = np.zeros(shape)
            for j in range(k):
                # taps hold unique indices, so a gathered += adds each step once
                gx[steps[j]] += _shared_weight_matmul(g, kd[j].T)
            nx.accumulate(gx)
        if nk is not None:
            g_rows = _rows(g)
            gk = np.empty((k, c_in, c_out))
            for j in range(k):
                gk[j] = _rows(xd[steps[j]]).T @ g_rows
            nk.accumulate(gk)

    return _make(out, (x, kernel), backward_fn)


# -- reverse pass -----------------------------------------------------------


def _released(g):
    raise ConfigError(
        "backward over a released graph: recompute the loss before a second backward"
    )


def backward(loss: Tensor, seed: np.ndarray | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every reachable leaf.

    ``seed`` is the gradient the loss itself receives, one by default.

    Each interior node is released as soon as its own backward has run: its
    gradient, closure and parents are dropped, so the arrays a closure
    holds are freed during the pass rather than after it.  The graph can
    therefore be differentiated once; a second backward raises ``ConfigError``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        return
    topo: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.accumulate(np.ones_like(loss.data) if seed is None else np.array(seed, dtype=np.float64))
    while topo:
        node = topo.pop()
        if node.backward is None:
            continue  # a leaf keeps its grad
        if node.grad is not None:
            node.backward(node.grad)
        node.grad = None
        node.backward = _released
        node.parents = ()


def with_gradients(value, grads: dict[str, np.ndarray], params: dict[str, Tensor]) -> Tensor:
    """A scalar ``value`` whose gradient in ``params[name]`` is ``grads[name]``, as one node.

    For a loss whose graph was differentiated elsewhere, as each window of a
    sharded pass is: the backward adds g × ``grads[name]`` into each named
    parameter.
    """
    sinks = [(params[name]._node, grad) for name, grad in grads.items()]

    def backward_fn(g):
        for node, grad in sinks:
            node.accumulate(g * grad)

    parents = tuple(params[name] for name in grads)
    return _make(np.asarray(value, dtype=np.float64), parents, backward_fn)


def gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradient of a scalar loss for each named parameter.

    Parameters not reached by the graph get exactly zero.  Existing ``grad``
    buffers are cleared first so repeated calls do not accumulate.
    """
    for p in params.values():
        if p.requires_grad:
            p._node.grad = None
    backward(loss)
    out = {}
    for name, p in params.items():
        g = p.grad
        out[name] = np.zeros_like(p.data) if g is None else g.copy()
        if g is not None:
            p._node.grad = None
    return out

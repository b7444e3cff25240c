"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is deliberately closed: exactly what the forecasting model
needs, nothing more.  All arrays are 64-bit so finite-difference checks are
trustworthy.  Tensors are immutable once produced by an operation; gradients
accumulate on leaves during :func:`backward`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

__all__ = [
    "Tensor",
    "parameter",
    "no_grad",
    "backward",
    "gradients",
    "concat",
    "broadcast_to",
    "softmax",
    "logsumexp",
    "dilated_causal_conv",
    "linear",
    "relu",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "log_sigmoid",
    "clip",
    "stop_gradient",
]


class Tensor:
    """A dense float64 array that may participate in a gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, g: np.ndarray, owned: bool = True) -> None:
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


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no autodiff graph inside the block.

    Every op still computes its output, but the result is a plain tensor:
    no parents, no backward closure, ``requires_grad`` False.  An
    intermediate array is then freed as soon as nothing reads it, instead
    of living on the tape until the result goes away.  Nests, and restores
    the previous state on exit, also when the block raises.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward_fn
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


def _accumulate_unbroadcast(x: Tensor, g: np.ndarray) -> None:
    """Pass the upstream gradient ``g`` on to ``x``, reduced to its shape."""
    gx = _unbroadcast(g, x.shape)
    x._accumulate(gx, owned=gx is not g)


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate_unbroadcast(a, g)
        if b.requires_grad:
            _accumulate_unbroadcast(b, g)

    return _make(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate_unbroadcast(a, g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), backward_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out, (a, b), backward_fn)


# -- contractions ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            if b.ndim == 2:
                # shared weight: one flattened GEMM instead of per-cell
                # outer products reduced afterwards
                a2 = a.data.reshape(-1, a.shape[-1])
                g2 = g.reshape(-1, g.shape[-1])
                b._accumulate(a2.T @ g2)
            else:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out, (a, b), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """Fused x @ weight + bias with optional relu: one graph node.

    ``weight`` is [C_in, C_out], ``bias`` is [C_out]; both shared across all
    leading axes of ``x``.  Equivalent to composing matmul/add/relu but with
    far less intermediate traffic on the hot path.
    """
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear extents differ: input {x.shape} vs weight {weight.shape}")
    out = x.data @ weight.data
    out += bias.data
    if relu:
        np.fmax(out, 0.0, out=out)

    def backward_fn(g):
        gpre = g * (out > 0.0) if relu else g
        if x.requires_grad:
            x._accumulate(gpre @ weight.data.T)
        if weight.requires_grad:
            x2 = x.data.reshape(-1, x.shape[-1])
            g2 = gpre.reshape(-1, gpre.shape[-1])
            weight._accumulate(x2.T @ g2)
        if bias.requires_grad:
            bias._accumulate(gpre.reshape(-1, gpre.shape[-1]).sum(axis=0))

    return _make(out, (x, weight, bias), backward_fn)


# -- nonlinearities -------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    # fmax, not maximum, so NaN maps to 0; the subgradient at 0 is defined
    # as 0, so out > 0 is the pass-through mask
    out = np.fmax(x.data, 0.0)

    def backward_fn(g):
        x._accumulate(g * (out > 0.0))

    return _make(out, (x,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward_fn(g):
        x._accumulate(g * (1.0 - out * out))

    return _make(out, (x,), backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: e / (1 + e) for z < 0, 1 / (1 + e) for z >= 0
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = np.divide(e, d, out=np.empty_like(z))  # an array also for 0-d z
    np.divide(1.0, d, out=out, where=z >= 0)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def backward_fn(g):
        x._accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward_fn)


def log_sigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) without intermediate underflow."""
    z = x.data
    out = np.where(z >= 0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z))))

    def backward_fn(g):
        x._accumulate(g * _sigmoid(-z))

    return _make(out, (x,), backward_fn)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward_fn(g):
        x._accumulate(g * out)

    return _make(out, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        worst = float(np.min(x.data))
        raise DomainError(f"log of non-positive input (min value {worst})")
    out = np.log(x.data)

    def backward_fn(g):
        x._accumulate(g / x.data)

    return _make(out, (x,), backward_fn)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through strictly inside."""
    out = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)

    def backward_fn(g):
        x._accumulate(g * mask)

    return _make(out, (x,), backward_fn)


def stop_gradient(x: Tensor) -> Tensor:
    return Tensor(x.data)


# -- shape manipulation ---------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = x.data.reshape(shape)

    def backward_fn(g):
        x._accumulate(g.reshape(x.shape), owned=False)

    return _make(out, (x,), backward_fn)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    out = np.transpose(x.data, axes)
    inverse = np.argsort(axes)

    def backward_fn(g):
        x._accumulate(np.transpose(g, inverse), owned=False)

    return _make(out, (x,), backward_fn)


def take(x: Tensor, index) -> Tensor:
    """Slice/int indexing, or one array of unique indices; gradient scatters back into place."""
    out = x.data[index]

    def backward_fn(g):
        full = np.zeros_like(x.data)
        full[index] = g
        x._accumulate(full)

    return _make(np.array(out, copy=True), (x,), backward_fn)


def broadcast_to(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = np.broadcast_to(x.data, shape).copy()

    def backward_fn(g):
        _accumulate_unbroadcast(x, g)

    return _make(out, (x,), backward_fn)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                p._accumulate(g[tuple(idx)], owned=False)

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

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return _make(out, (x,), backward_fn)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, x.ndim)
    out = np.mean(x.data, axis=axis, keepdims=keepdims)
    count = x.size if axis is None else int(np.prod([x.shape[a] for a in axis]))

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape) / count)

    return _make(out, (x,), backward_fn)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Row-stochastic along ``axis``; max-subtraction keeps exp in range."""
    axis = axis % x.ndim
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def backward_fn(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        x._accumulate((g - inner) * out)

    return _make(out, (x,), backward_fn)


def logsumexp(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """log(sum(exp(x))) along ``axis``, computed via max shifting."""
    axis = axis % x.ndim
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    inner = log(reduce_sum(exp(sub(x, shift)), axis=axis, keepdims=True))
    out = add(inner, shift)
    if not keepdims:
        shape = list(out.shape)
        del shape[axis]
        out = reshape(out, shape)
    return out


# -- temporal convolution ---------------------------------------------------


def _as_slice(index: np.ndarray):
    """An evenly spaced index array as the equivalent slice, so reading it takes a view."""
    step = int(index[1] - index[0]) if len(index) > 1 else 1
    start, stop = int(index[0]), int(index[-1]) + 1
    if start >= 0 and step > 0 and np.array_equal(index, np.arange(start, stop, step)):
        return slice(start, stop, step)
    return index


def dilated_causal_conv(
    x: Tensor, kernel: Tensor, dilation: int | None = None, *, taps: Sequence | None = None
) -> Tensor:
    """Causal convolution along axis -2 of ``x``, computing only the requested output steps.

    ``x`` is [..., T, C_in], ``kernel`` is [k, C_in, C_out].  ``taps`` holds one
    index array per kernel tap, all of length T'; output step i is the sum over
    taps j of ``x[..., taps[j][i], :] @ kernel[j]``, so the output is
    [..., T', C_out].  Indices within one tap must be unique.

    ``dilation`` is the case where every output step is computed: the output
    is [..., T - (k-1)*dilation, C_out] where output step t aggregates input
    steps t, t+dilation, ..., t+(k-1)*dilation (the window ending at the
    aligned time step).  Pass exactly one of ``dilation`` and ``taps``.
    """
    if kernel.ndim != 3:
        raise ShapeError(f"conv kernel must be [k, C_in, C_out], got {kernel.shape}")
    if x.shape[-1] != kernel.shape[1]:
        raise ShapeError(f"conv channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    k = kernel.shape[0]
    if (dilation is None) == (taps is None):
        raise ConfigError("dilated_causal_conv needs exactly one of dilation and taps")
    if taps is None:
        if dilation < 1:
            raise ConfigError(f"dilation must be positive, got {dilation}")
        t_in = x.shape[-2]
        t_out = t_in - (k - 1) * dilation
        if t_out < 1:
            raise ConfigError(
                f"temporal window too short: {t_in} steps cannot support kernel {k} "
                f"with dilation {dilation}"
            )
        taps = [slice(j * dilation, j * dilation + t_out) for j in range(k)]
    else:
        taps = [np.asarray(tap) for tap in taps]
        if len(taps) != k:
            raise ShapeError(
                f"conv needs one tap per kernel tap: {len(taps)} for kernel {kernel.shape}"
            )
        if len({len(tap) for tap in taps}) != 1 or len(taps[0]) == 0:
            lengths = [len(tap) for tap in taps]
            raise ShapeError(f"conv taps must be non-empty and equally long, got lengths {lengths}")
        taps = [_as_slice(tap) for tap in taps]

    def read(j: int) -> np.ndarray:
        return x.data[..., taps[j], :]

    out = read(0) @ kernel.data[0]
    for j in range(1, k):
        out += read(j) @ kernel.data[j]

    def backward_fn(g):
        g_rows = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for j in range(k):
                # taps hold unique indices, so a gathered += adds each row once
                gx[..., taps[j], :] += (g_rows @ kernel.data[j].T).reshape(g.shape[:-1] + (-1,))
            x._accumulate(gx)
        if kernel.requires_grad:
            gk = np.zeros_like(kernel.data)
            for j in range(k):
                xs = read(j)
                gk[j] = xs.reshape(-1, xs.shape[-1]).T @ g_rows
            kernel._accumulate(gk)

    return _make(out, (x, kernel), backward_fn)


# -- reverse pass -----------------------------------------------------------


def _released(g):
    raise ConfigError(
        "backward over a released graph: recompute the loss before a second backward"
    )


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every reachable leaf.

    Each interior node is released as soon as its own backward has run: its
    gradient, closure and parents are dropped, so the activations a closure
    holds are freed during the pass rather than after it.  The graph can
    therefore be differentiated once; a second backward raises ``ConfigError``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue  # a leaf keeps its grad
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = _released
        node._parents = ()


def gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradient of a scalar loss for each named parameter.

    Parameters not reached by the graph get exactly zero.  Existing ``grad``
    buffers are cleared first so repeated calls do not accumulate.
    """
    for p in params.values():
        p.grad = None
    backward(loss)
    out = {}
    for name, p in params.items():
        out[name] = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    return out

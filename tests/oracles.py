"""Brute-force reference implementations used as independent test oracles.

Everything here is deliberately slow and loop-based (or delegates to scipy)
so it shares no code path with the package under test.  The exceptions are
the two encoders at the end, built from the package's tape ops:
``encode_every_step`` reruns the package's own encoder blocks without the
time plan, so the plan can be checked against the dense computation, and
``encode_unfused`` composes each block from small ops, so the fused blocks
can be checked against it.  ``packed_attention`` is the attention half of
the two-node form ``tensor.attention`` fuses, and ``temporal_conv_chain``
the five-node form of the gated conv, for bit-for-bit checks.
"""

import math

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from mossl import encoder as enc
from mossl import tensor
from mossl.tensor import concat, dilated_causal_conv, linear, sigmoid, softmax


def fd_gradient(loss_fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function w.r.t. one array, in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = loss_fn()
        flat[i] = orig - eps
        f_minus = loss_fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def conv_loop(x: np.ndarray, kernel: np.ndarray, dilation: int) -> np.ndarray:
    """Explicit-loop dilated causal convolution along axis -2."""
    k, c_in, c_out = kernel.shape
    t_in = x.shape[-2]
    t_out = t_in - (k - 1) * dilation
    lead = x.shape[:-2]
    out = np.zeros(lead + (t_out, c_out))
    for idx in np.ndindex(lead):
        for t in range(t_out):
            for co in range(c_out):
                acc = 0.0
                for j in range(k):
                    for ci in range(c_in):
                        acc += x[idx + (t + j * dilation, ci)] * kernel[j, ci, co]
                out[idx + (t, co)] = acc
    return out


def dense_taps(t_in: int, k: int, dilation: int) -> list[np.ndarray]:
    """Conv taps computing every output step: tap j of output step t reads t + j*dilation."""
    t_out = t_in - (k - 1) * dilation
    return [np.arange(j * dilation, j * dilation + t_out) for j in range(k)]


def projection_loop(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(h @ w + b, 0.0)


def qkv(attn) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) of the query, key and value thirds of a packed projection, as views."""
    return list(zip(np.split(attn.weight.data, 3, axis=1), np.split(attn.bias.data, 3)))


def filter_gate(conv) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel, bias) of the filter and gate halves of a packed conv, as views."""
    return list(zip(np.split(conv.kernel.data, 2, axis=-1), np.split(conv.bias.data, 2)))


def attention_loop(h: np.ndarray, attn) -> np.ndarray:
    """Per-cell double-loop attention over the second-to-last axis of [..., A, C]."""
    lead = h.shape[:-2]
    a, c = h.shape[-2:]
    out = np.zeros_like(h)
    for idx in np.ndindex(lead):
        block = h[idx]  # [A, C]
        q, k, v = (projection_loop(block, w, b) for w, b in qkv(attn))
        for i in range(a):
            scores = np.array([np.dot(q[i], k[j]) / math.sqrt(c) for j in range(a)])
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            out[idx + (i,)] = sum(alpha[j] * v[j] for j in range(a))
    return out


def gmm_nll_prob_domain(h: np.ndarray, gamma: np.ndarray, mu: np.ndarray, sigma2: np.ndarray) -> float:
    """Mixture NLL for one window via scipy densities, no log-sum-exp.

    ``h`` is [G, D] grid cells; gamma [K]; mu/sigma2 [K, D].
    """
    total = 0.0
    for g in range(h.shape[0]):
        p = 0.0
        for k in range(gamma.shape[0]):
            density = 1.0
            for d in range(h.shape[1]):
                density *= norm.pdf(h[g, d], loc=mu[k, d], scale=math.sqrt(sigma2[k, d]))
            p += gamma[k] * density
        total -= math.log(p)
    return total


def contrastive_loop(r: np.ndarray, context: np.ndarray, w3: np.ndarray) -> float:
    """Exhaustive positive/negative pair BCE for one window.

    ``r`` is [T, N, M, D]; context [M, D]; anchors iterate every grid cell.
    """
    t_len, n_len, m_len, _ = r.shape
    total = 0.0
    for t in range(t_len):
        for n in range(n_len):
            for m in range(m_len):
                pos = expit(r[t, n, m] @ w3 @ context[m])
                total -= math.log(pos)
                for m_other in range(m_len):
                    if m_other == m:
                        continue
                    neg = expit(r[t, n, m_other] @ w3 @ context[m])
                    total -= math.log(1.0 - neg)
    return total


def encode_every_step(x, proj, layers, cfg):
    """The encoder computing every time step of every layer, with dense conv taps.

    Same blocks as ``encoder.encode``.  Drop-in replacement for ``encoder.encode``.
    """
    h = enc.input_project(x, proj)
    for layer, dilation in zip(layers, cfg.dilations, strict=True):
        ma = enc.modality_attention(h, layer.modality_attn)
        sa = enc.spatial_attention(h, layer.spatial_attn)
        taps = dense_taps(h.shape[-4], cfg.kernel_size, dilation)
        h = enc.temporal_conv_layer([h, ma, sa], layer.conv, taps)
    return h


def axis_attention_unfused(h, attn, axis):
    """Attention over one axis with three projections of the swapped view and separate nodes."""
    axis = axis % h.ndim
    moved = h if axis == h.ndim - 2 else h.swapaxes(axis, -2)
    c = h.shape[-1]
    q, k, v = (
        linear(moved, attn.weight[:, s : s + c], attn.bias[s : s + c], relu=True)
        for s in (0, c, 2 * c)
    )
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    out = softmax(scores, axis=-1) @ v
    return out if axis == h.ndim - 2 else out.swapaxes(axis, -2)


def packed_attention(qkv, axis):
    """Attention over ``axis`` of a packed [..., 3C] q|k|v tensor, as one tape node keeping P.

    After ``linear(..., relu=True)`` it is the two-node form that
    ``tensor.attention`` fuses, by the same array ops in the same order, so
    the fused node must match it bit for bit; composed from small tape ops,
    as ``axis_attention_unfused`` is, it differs in the low bits.
    """
    axis = axis % qkv.ndim
    c = qkv.shape[-1] // 3
    scale = 1.0 / math.sqrt(c)
    packed = qkv.data
    moved = np.swapaxes(packed, axis, -2)
    q, k, v = moved[..., :c], moved[..., c : 2 * c], moved[..., 2 * c :]
    p = q @ np.swapaxes(k, -1, -2)
    p *= scale
    p -= np.max(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.sum(p, axis=-1, keepdims=True)

    def backward_fn(g):
        g = np.swapaxes(g, axis, -2)
        grad = np.empty_like(packed)
        gm = np.swapaxes(grad, axis, -2)
        np.matmul(np.swapaxes(p, -1, -2), g, out=gm[..., 2 * c :])
        ds = g @ np.swapaxes(v, -1, -2)
        ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
        ds *= p
        ds *= scale
        np.matmul(ds, k, out=gm[..., :c])
        np.matmul(np.swapaxes(ds, -1, -2), q, out=gm[..., c : 2 * c])
        qkv._node.accumulate(grad)

    return tensor._make(np.swapaxes(p @ v, axis, -2), (qkv,), backward_fn)


def tanh(x):
    """A tape node for tanh, which the package only runs fused inside ``gated_tanh``.

    Composed as 2 sigmoid(2x) - 1 instead, a small output carries the absolute
    rounding error of a value near 1, and the fused and unfused gradients of
    the small-train case then differ by 2.9e-12 relative.
    """
    out = np.tanh(x.data)

    def backward_fn(g):
        x._node.accumulate(g * (1.0 - out * out))

    return tensor._make(out, (x,), backward_fn)


def gated_product(x):
    """tanh of the first half of the channels times sigmoid of the second, as one tape node.

    The gated half of the two-node form ``tensor.gated_tanh`` fuses with the
    mix ``linear``, by the same array ops in the same order.
    """
    c = x.shape[-1] // 2
    t = np.tanh(x.data[..., :c])
    s = tensor._sigmoid(x.data[..., c:])

    def backward_fn(g):
        grad = np.empty(x.shape)
        grad[..., :c] = g * s * (1.0 - t * t)
        grad[..., c:] = g * t * s * (1.0 - s)
        x._node.accumulate(grad)

    return tensor._make(t * s, (x,), backward_fn)


def temporal_conv_chain(views, conv, taps):
    """``encoder.temporal_conv_layer`` as five tape nodes: concat, conv, + bias, gated product, mix.

    Each node runs the array ops of its part of the fused two-node layer in
    the same order, so the fused layer must match it bit for bit.
    """
    pre = dilated_causal_conv(concat(views, axis=-1), conv.kernel, taps, axis=-4) + conv.bias
    return linear(gated_product(pre), conv.mix.weight, conv.mix.bias)


def temporal_conv_unfused(h_cat, conv, taps):
    """Gated conv along axis -2 of the time-swapped input, filter and gate convolved apart."""
    moved = h_cat.swapaxes(-4, -2)  # [..., M, N, T, 3C]
    c = conv.mix.weight.shape[0]
    filtered = dilated_causal_conv(moved, conv.kernel[..., :c], taps=taps) + conv.bias[:c]
    gated = dilated_causal_conv(moved, conv.kernel[..., c:], taps=taps) + conv.bias[c:]
    mixed = linear(tanh(filtered) * sigmoid(gated), conv.mix.weight, conv.mix.bias)
    return mixed.swapaxes(-4, -2)


def encode_unfused(x, proj, layers, cfg):
    """The time-planned encoder with every layer built from unfused blocks.

    Drop-in replacement for ``encoder.encode``.
    """
    plan = cfg.time_plan()
    x = x[..., plan.steps[0], :, :, :]
    h = enc.input_project(x, proj)
    for layer, taps in zip(layers, plan.taps, strict=True):
        ma = axis_attention_unfused(h, layer.modality_attn, axis=-2)
        sa = axis_attention_unfused(h, layer.spatial_attn, axis=-3)
        h = temporal_conv_unfused(concat([h, ma, sa], axis=-1), layer.conv, taps)
    return h

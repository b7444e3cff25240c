"""Operation contracts and gradient correctness of the autodiff engine."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mossl import tensor as T
from mossl.errors import ConfigError, DomainError, ShapeError
from oracles import conv_loop, dense_taps, fd_gradient, packed_attention


def rng(seed=0):
    return np.random.default_rng(seed)


def rel_err(a, n):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.Tensor(np.eye(2)) @ T.Tensor(b)
        assert np.array_equal(out.data, b)

    def test_hand_contraction(self):
        out = T.Tensor([[1.0, 2.0]]) @ T.Tensor([[3.0], [4.0]])
        assert out.data.tolist() == [[11.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            T.Tensor(np.zeros((2, 3))) @ T.Tensor(np.zeros((2, 3)))
        assert "(2, 3)" in str(exc.value)

    def test_grad_of_sum_closed_form(self):
        a = T.Tensor(rng(1).standard_normal((3, 4)), requires_grad=True)
        b = T.Tensor(rng(2).standard_normal((4, 2)), requires_grad=True)
        loss = (a @ b).sum()
        grads = T.gradients(loss, {"a": a, "b": b})
        assert np.allclose(grads["a"], np.ones((3, 2)) @ b.data.T, atol=1e-12)
        assert np.allclose(grads["b"], a.data.T @ np.ones((3, 2)), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        a_data = rng(3).standard_normal((2, 3, 4))
        b_data = rng(4).standard_normal((4, 2))
        weight = rng(5).standard_normal((2, 3, 2))

        a = T.Tensor(a_data, requires_grad=True)
        b = T.Tensor(b_data, requires_grad=True)
        loss = ((a @ b) * T.Tensor(weight)).sum()
        grads = T.gradients(loss, {"a": a, "b": b})

        def scalar():
            return float(np.sum((a_data @ b_data) * weight))

        assert rel_err(grads["a"], fd_gradient(scalar, a_data)) < 1e-6
        assert rel_err(grads["b"], fd_gradient(scalar, b_data)) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_direct_formula(self):
        out = T.softmax(T.Tensor([math.log(2.0), 0.0]), axis=0)
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_no_overflow_on_extreme_input(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    @given(
        st.lists(
            st.floats(min_value=-700, max_value=700, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, values):
        out = T.softmax(T.Tensor(values), axis=0)
        assert abs(float(out.data.sum()) - 1.0) < 1e-12
        # entries can underflow to an exact 0.0 when gaps exceed ~745 in
        # log space; they never exceed 1 or go negative
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)


class TestElementwise:
    def test_relu_values(self):
        out = T.relu(T.Tensor([-3.0, 0.0, 3.0]))
        assert out.data.tolist() == [0.0, 0.0, 3.0]

    def test_sigmoid_symmetry(self):
        assert float(T.sigmoid(T.Tensor(0.0)).data) == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid(T.Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))

    def test_concat_shape_arithmetic(self):
        out = T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            T.log(T.Tensor([1.0, -2.0]))

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = rng(6).standard_normal(50) * 3
        out = T.log_sigmoid(T.Tensor(x))
        assert np.allclose(out.data, np.log(1.0 / (1.0 + np.exp(-x))), atol=1e-12)

    def test_log_sigmoid_no_underflow(self):
        out = T.log_sigmoid(T.Tensor([-750.0]))
        assert out.data[0] == pytest.approx(-750.0)


class TestDilatedCausalConv:
    def test_kernel_one_identity(self):
        x = rng(7).standard_normal((5, 3))
        out = T.dilated_causal_conv(T.Tensor(x), T.Tensor(np.eye(3)[None]), dense_taps(5, 1, 1))
        assert np.allclose(out.data, x, atol=1e-15)

    def test_selector_kernel_shifts(self):
        # taps (0, 1) per channel pick the newer step: output equals input
        # with the first step dropped
        x = rng(8).standard_normal((6, 2))
        kernel = np.stack([np.zeros((2, 2)), np.eye(2)])
        out = T.dilated_causal_conv(T.Tensor(x), T.Tensor(kernel), dense_taps(6, 2, 1))
        assert np.allclose(out.data, x[1:], atol=1e-15)

    def test_matches_loop_oracle(self):
        x = rng(9).standard_normal((2, 7, 3))
        kernel = rng(10).standard_normal((2, 3, 4))
        out = T.dilated_causal_conv(T.Tensor(x), T.Tensor(kernel), dense_taps(7, 2, 2))
        assert np.allclose(out.data, conv_loop(x, kernel, 2), atol=1e-12)

    def test_causality(self):
        x = rng(11).standard_normal((8, 2))
        kernel = rng(12).standard_normal((2, 2, 2))
        base = T.dilated_causal_conv(T.Tensor(x), T.Tensor(kernel), dense_taps(8, 2, 2)).data
        bumped = x.copy()
        bumped[-1] += 10.0
        out = T.dilated_causal_conv(T.Tensor(bumped), T.Tensor(kernel), dense_taps(8, 2, 2)).data
        # only the final output step has the last input in its window
        assert np.array_equal(out[:-1], base[:-1])
        assert not np.allclose(out[-1], base[-1])

    def test_taps_select_output_steps_of_the_dilation_case(self):
        x = rng(13).standard_normal((2, 9, 3))
        kernel = rng(14).standard_normal((3, 3, 2))
        dense = T.dilated_causal_conv(T.Tensor(x), T.Tensor(kernel), dense_taps(9, 3, 2)).data
        rows = np.array([0, 3, 4])
        taps = tuple(rows + 2 * j for j in range(3))
        out = T.dilated_causal_conv(T.Tensor(x), T.Tensor(kernel), taps).data
        assert np.array_equal(out, dense[:, rows])

    @pytest.mark.parametrize("axis", [-2, 0])
    def test_parts_with_bias_match_concat_then_add_bit_for_bit(self, axis):
        # the parts' gradients arrive as concat's slices, the bias's as add's
        shapes = [(3, 5, 3, 1), (3, 5, 3, 2), (3, 5, 3, 3)]
        data = [rng(90 + i).standard_normal(s) for i, s in enumerate(shapes)]
        kernel_data, bias_data = rng(94).standard_normal((2, 6, 4)), rng(95).standard_normal(4)
        taps = (np.array([0, 2]), np.array([2, 1]))
        probe = T.Tensor(rng(96).standard_normal((2, 5, 3, 4) if axis == 0 else (3, 5, 2, 4)))

        def run(fused):
            parts = [T.Tensor(d, requires_grad=True) for d in data]
            kernel = T.Tensor(kernel_data, requires_grad=True)
            bias = T.Tensor(bias_data, requires_grad=True)
            if fused:
                out = T.dilated_causal_conv(parts, kernel, taps, axis=axis, bias=bias)
            else:
                joined = T.concat(parts, axis=-1)
                out = T.dilated_causal_conv(joined, kernel, taps, axis=axis) + bias
            loss = (out * probe).sum()
            named = {f"part{i}": p for i, p in enumerate(parts)} | {"kernel": kernel, "bias": bias}
            return [out.data] + list(T.gradients(loss, named).values())

        for got, want in zip(run(True), run(False), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_keeps_the_parts_not_their_concatenation(self):
        parts = [T.Tensor(rng(97).standard_normal((4, 2, c)), requires_grad=True) for c in (1, 2)]
        kernel = T.Tensor(rng(98).standard_normal((2, 3, 2)), requires_grad=True)
        out = T.dilated_causal_conv(parts, kernel, dense_taps(4, 2, 1), axis=0)
        held = closure_arrays(out._node.backward)
        assert sorted(a.shape for a in held) == [(2, 3, 2), (4, 2, 1), (4, 2, 2)]
        assert all(any(a is d for d in (parts[0].data, parts[1].data, kernel.data)) for a in held)

    def test_parts_must_agree_off_the_channel_axis(self):
        parts = [T.Tensor(np.zeros((4, 2, 1))), T.Tensor(np.zeros((4, 3, 1)))]
        with pytest.raises(ShapeError, match="off the channel axis"):
            T.dilated_causal_conv(parts, T.Tensor(np.zeros((1, 2, 1))), (np.arange(4),), axis=0)

    def test_taps_must_match_the_kernel(self):
        x, kernel = T.Tensor(np.zeros((4, 1))), T.Tensor(np.zeros((2, 1, 1)))
        with pytest.raises(ShapeError, match="one tap per kernel tap"):
            T.dilated_causal_conv(x, kernel, (np.arange(3),))
        with pytest.raises(ShapeError, match="equally long"):
            T.dilated_causal_conv(x, kernel, (np.arange(3), np.arange(2)))


# NaN, signed zeros, infinities and values whose exp over- or underflows
_SPECIAL = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1.5, -2.5, 1e-300])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestKernels:
    """The relu and sigmoid kernels against the formulas they replaced."""

    @staticmethod
    def old_relu(z):
        return np.where(z > 0.0, z, 0.0)

    @staticmethod
    def old_sigmoid(z):
        pos = z >= 0
        out = np.empty_like(z)
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_relu_is_bit_equal_and_keeps_its_mask(self):
        x = T.Tensor(_SPECIAL, requires_grad=True)
        probe = rng(60).standard_normal(_SPECIAL.shape)
        out = T.relu(x)
        assert np.array_equal(_bits(out.data), _bits(self.old_relu(_SPECIAL)))
        grad = T.gradients((out * T.Tensor(probe)).sum(), {"x": x})["x"]
        assert np.array_equal(_bits(grad), _bits(probe * (_SPECIAL > 0.0)))

    def test_linear_relu_is_bit_equal_and_keeps_its_mask(self):
        # identity weight and zero bias: the pre-activation is the input itself
        x = T.Tensor(_SPECIAL[:, None], requires_grad=True)
        weight = T.Tensor(np.ones((1, 1)))
        bias = T.Tensor(np.zeros(1))
        probe = rng(61).standard_normal((_SPECIAL.size, 1))
        out = T.linear(x, weight, bias, relu=True)
        pre = _SPECIAL[:, None] @ np.ones((1, 1)) + np.zeros(1)
        assert np.array_equal(_bits(out.data), _bits(self.old_relu(pre)))
        grad = T.gradients((out * T.Tensor(probe)).sum(), {"x": x})["x"]
        assert np.array_equal(_bits(grad), _bits((probe * (pre > 0.0)) @ np.ones((1, 1))))

    @pytest.mark.parametrize("relu", [False, True])
    def test_linear_keeps_its_output_only_with_relu(self, relu):
        x = T.Tensor(rng(64).standard_normal((3, 2)), requires_grad=True)
        weight = T.Tensor(rng(65).standard_normal((2, 4)), requires_grad=True)
        bias = T.Tensor(rng(66).standard_normal(4), requires_grad=True)
        out = T.linear(x, weight, bias, relu=relu)
        held = closure_arrays(out._node.backward)
        assert {id(a) for a in held if a is not out.data} == {id(weight.data), id(x.data)}
        assert any(a is out.data for a in held) == relu

    def test_sigmoid_is_bit_equal_and_nan_stays_nan(self):
        out = T.sigmoid(T.Tensor(_SPECIAL)).data
        old = self.old_sigmoid(_SPECIAL)
        nan = np.isnan(_SPECIAL)
        assert np.isnan(out[nan]).all()
        assert np.array_equal(_bits(out[~nan]), _bits(old[~nan]))
        wide = rng(62).standard_normal(1000) * 40
        assert np.array_equal(_bits(T.sigmoid(T.Tensor(wide)).data), _bits(self.old_sigmoid(wide)))

    @pytest.mark.parametrize("columns", [1, 2, 3, 4, 5, 6, 7, 8, 98])
    def test_row_max_is_bit_equal_to_np_max(self, columns):
        r = rng(63)
        values = np.concatenate([_SPECIAL, r.standard_normal(6)])
        rows = r.choice(values, size=(400, columns))
        rows[:3, 0] = [np.nan, np.inf, -0.0]  # rows that start with a special value
        rows[3], rows[4], rows[5] = -0.0, -np.inf, np.nan
        rows[6, ::2], rows[6, 1::2] = -0.0, 0.0  # signed zeros only
        rows[7, -1] = np.nan  # a NaN in the last column
        got, want = T._row_max(rows), np.max(rows, axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def _offset(a):
    # keep relu/clip inputs away from their kinks
    return a + 0.1 * np.sign(a) + 0.05


_OP_CASES = {
    "add": lambda x: (x + T.Tensor(rng(20).standard_normal(x.shape))),
    "add_broadcast": lambda x: (x + T.Tensor(rng(21).standard_normal(x.shape[-1]))),
    "sub": lambda x: (T.Tensor(rng(22).standard_normal(x.shape)) - x),
    "mul": lambda x: (x * T.Tensor(rng(23).standard_normal(x.shape))),
    "div": lambda x: (x / T.Tensor(2.0 + np.abs(rng(24).standard_normal(x.shape)))),
    "neg": lambda x: (-x),
    "relu": lambda x: T.relu(x),
    "sigmoid": lambda x: T.sigmoid(x),
    "exp": lambda x: T.exp(x),
    "log": lambda x: T.log(x * x + 1.0),
    "log_sigmoid": lambda x: T.log_sigmoid(x),
    "softmax": lambda x: T.softmax(x, axis=-1),
    "logsumexp": lambda x: T.logsumexp(x, axis=-1),
    "sum_axis": lambda x: x.sum(axis=0, keepdims=True),
    "mean_axes": lambda x: x.mean(axis=(0, 1)),
    "reshape": lambda x: x.reshape(-1 if x.size % 2 else (x.size // 2, 2)),
    "transpose": lambda x: x.transpose((2, 0, 1)),
    "slice": lambda x: x[:, 1:, :2],
    "clip": lambda x: T.clip(x, -0.8, 0.8),
    "broadcast": lambda x: T.broadcast_to(x.mean(axis=0, keepdims=True), x.shape),
    "concat": lambda x: T.concat([x, x * T.Tensor(2.0)], axis=1),
    "linear": lambda x: T.linear(
        x,
        T.Tensor(rng(25).standard_normal((x.shape[-1], 2))),
        T.Tensor(rng(26).standard_normal(2)),
        relu=True,
    ),
    "matmul_batched": lambda x: x @ T.Tensor(rng(27).standard_normal((x.shape[-1], 3))),
    # x is the 2-D weight shared by every leading cell of a rank-3 operand
    "matmul_shared_weight": lambda x: T.Tensor(rng(32).standard_normal((2, 4, 3))) @ x[0],
    # packed q/k/v with C=2, attending over the axis next to the channels
    "attention": lambda x: T.attention(
        x, T.Tensor(rng(33).standard_normal((3, 6))), T.Tensor(rng(38).standard_normal(6)), axis=-2
    ),
    # and over axis 0 of a [3, 2, 3] input, another axis between it and the channels;
    # the half-scale projection keeps the logits, and so the difference error, small
    "attention_far_axis": lambda x: T.attention(
        x.transpose((1, 0, 2)),
        T.Tensor(0.5 * rng(34).standard_normal((3, 6))),
        T.Tensor(rng(39).standard_normal(6)),
        axis=0,
    ),
    # x as the weight and, through a row of it, the bias; A = C = 2 keeps P
    "attention_weight": lambda x: T.attention(
        T.Tensor(rng(42).standard_normal((2, 2, 3))), x.reshape(3, 6), x.reshape(3, 6)[1], axis=-2
    ),
    "gated_tanh": lambda x: T.gated_tanh(
        x @ T.Tensor(rng(35).standard_normal((3, 4))),
        T.Tensor(rng(40).standard_normal((2, 3))),
        T.Tensor(rng(41).standard_normal(3)),
    ),
    # x[0] as the [C=3, 3] mix weight and x[1, 0] as its bias
    "gated_tanh_weight": lambda x: T.gated_tanh(
        T.Tensor(rng(43).standard_normal((2, 2, 6))), x[0], x[1, 0]
    ),
    "conv": lambda x: T.dilated_causal_conv(
        x, T.Tensor(rng(28).standard_normal((2, x.shape[-1], 2))), dense_taps(x.shape[-2], 2, 1)
    ),
    # x and exp of two of its channels as one [2, 3, 5] input, with a bias
    "conv_parts": lambda x: T.dilated_causal_conv(
        [x, T.exp(x[..., :2])],
        T.Tensor(rng(44).standard_normal((2, 5, 2))),
        dense_taps(x.shape[-2], 2, 1),
        bias=T.Tensor(rng(45).standard_normal(2)),
    ),
    # x[0, 0] as the bias of a conv over two constant parts
    "conv_parts_bias": lambda x: T.dilated_causal_conv(
        [T.Tensor(rng(46).standard_normal((2, 3, c))) for c in (1, 2)],
        T.Tensor(rng(48).standard_normal((2, 3, 3))),
        dense_taps(3, 2, 1),
        bias=x[0, 0],
    ),
    # one strided tap and one unordered tap, both reading step 2
    "conv_taps": lambda x: T.dilated_causal_conv(
        x,
        T.Tensor(rng(29).standard_normal((2, x.shape[-1], 2))),
        taps=(np.array([0, 2]), np.array([2, 1])),
    ),
    # time on axis 0 of a non-contiguous [T=3, 2, C]: a slice, a strided and an unordered tap
    "conv_axis": lambda x: T.dilated_causal_conv(
        x.transpose((1, 0, 2)),
        T.Tensor(rng(36).standard_normal((3, x.shape[-1], 2))),
        taps=(np.array([0, 1]), np.array([0, 2]), np.array([2, 1])),
        axis=0,
    ),
    # x is the [k=2, 3, 3] kernel, convolved along axis -3 of a [2, 3, 2, 3] input
    "conv_axis_kernel": lambda x: T.dilated_causal_conv(
        T.Tensor(rng(37).standard_normal((2, 3, 2, 3))),
        x,
        taps=(np.array([0, 1]), np.array([2, 0])),
        axis=-3,
    ),
}


@pytest.mark.parametrize("name", sorted(_OP_CASES))
def test_every_op_gradient_matches_central_differences(name):
    data = _offset(rng(30).standard_normal((2, 3, 3)))
    x = T.Tensor(data, requires_grad=True)
    build = _OP_CASES[name]
    probe = T.Tensor(rng(31).standard_normal(build(T.Tensor(data)).shape))

    def loss_tensor():
        return (build(x) * probe).sum()

    analytic = T.gradients(loss_tensor(), {"x": x})["x"]

    def scalar():
        return float((build(T.Tensor(data)) * probe).sum().data)

    numeric = fd_gradient(scalar, data)
    assert rel_err(analytic, numeric) < 1e-6, f"{name} gradient mismatch"


def held_tensors(root) -> list[str]:
    """Where the tape below node ``root`` holds a ``Tensor``: in a parent edge or a closure cell.

    Follows parent edges and every tape node a closure cell holds, such as
    the parameters a ``with_gradients`` node adds into, and looks inside the
    lists, tuples, dicts and nested closures a cell holds.
    """
    found, seen, stack = [], set(), [root]

    def scan(value, where):
        if isinstance(value, T.Tensor):
            found.append(where)
        elif isinstance(value, T._Node):
            stack.append(value)
        elif isinstance(value, (list, tuple, set)):
            for item in value:
                scan(item, where)
        elif isinstance(value, dict):
            for item in value.values():
                scan(item, where)
        elif callable(value) and getattr(value, "__closure__", None):
            for cell in value.__closure__:
                scan(cell.cell_contents, f"{where} > {value.__qualname__}")

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = node.backward.__qualname__ if node.backward is not None else "leaf"
        for parent in node.parents:
            if not isinstance(parent, T._Node):
                found.append(f"parent edge of {kind}")
            stack.append(parent)
        scan(node.backward, "closure")
    return found


@pytest.mark.parametrize("name", sorted(_OP_CASES))
def test_no_op_node_holds_a_tensor(name):
    x = T.Tensor(_offset(rng(30).standard_normal((2, 3, 3))), requires_grad=True)
    out = _OP_CASES[name](x)
    assert out.requires_grad
    assert held_tensors(out._node) == []


def closure_arrays(fn) -> list[np.ndarray]:
    """The arrays a backward closure holds, in its cells and in the closures those hold."""
    found, stack = [], [fn]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif callable(value) and getattr(value, "__closure__", None):
            stack.extend(cell.cell_contents for cell in value.__closure__)
    return found


def held_arrays(total, params) -> list[tuple[str, np.ndarray]]:
    """(op kind, base array) for each distinct array the closures of one op kind hold, below ``total``.

    The tape below node-bearing tensor ``total`` is walked along parent
    edges; a node's kind is the op function that defined its backward
    closure.  A held view counts as the array it views, once per kind, and
    the arrays of ``params``, a dict of tensors, are left out.
    """
    skip = {id(p.data) for p in params.values()}
    found, seen, stack = {}, set(), [total._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.backward is None:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        kind = node.backward.__qualname__.partition(".")[0]
        for a in closure_arrays(node.backward):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in skip:
                found[(kind, id(a))] = (kind, a)
    return list(found.values())


def held_bytes_by_op(total, params) -> dict[str, int]:
    """Bytes the tape below ``total`` holds, parameters left out, by the op kinds that hold them.

    Each array counts once, under the kinds whose closures hold it joined
    by "+" (such as "attention+dilated_causal_conv" for a layer input), so
    the values add up to the whole graph and an array that stops being
    shared shows as growth under one kind.
    """
    kinds: dict[int, set[str]] = {}
    arrays: dict[int, np.ndarray] = {}
    for kind, a in held_arrays(total, params):
        kinds.setdefault(id(a), set()).add(kind)
        arrays[id(a)] = a
    by_op: dict[str, int] = {}
    for key, a in arrays.items():
        label = "+".join(sorted(kinds[key]))
        by_op[label] = by_op.get(label, 0) + a.nbytes
    return by_op


@pytest.mark.parametrize("extent", [3, 4, 5, 6])
@pytest.mark.parametrize("blocks", ["one", "many"])
def test_attention_keeps_projection_and_p_only_in_one_block(monkeypatch, blocks, extent):
    # C = 4, so A = 3 and 4 are at most C and A = 5 and 6 exceed it; the two
    # lead cells fit one block of 2 MiB and need two of 1 byte
    if blocks == "many":
        monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
    x = T.Tensor(rng(34).standard_normal((2, extent, 5)), requires_grad=True)
    w = T.Tensor(rng(35).standard_normal((5, 12)), requires_grad=True)
    b = T.Tensor(rng(36).standard_normal(12), requires_grad=True)
    out = T.attention(x, w, b, axis=-2)
    inputs = (x.data, w.data, b.data)
    held = [
        a.shape
        for a in closure_arrays(out._node.backward)
        if not any(np.shares_memory(a, d) for d in inputs)
    ]
    if blocks == "one":
        assert sorted(held) == [(2, extent, extent), (2, extent, 12)]
    else:
        assert held == [(2, extent, 1)] * 2


def _attention_run(x_data, w_data, b_data, probe, axis, fused=True):
    """Loss and the x, weight and bias gradients of ``attention`` or its two-node oracle."""
    x, w, b = (T.Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
    if fused:
        out = T.attention(x, w, b, axis=axis)
    else:
        out = packed_attention(T.linear(x, w, b, relu=True), axis=axis)
    loss = (out * probe).sum()
    return [loss.data] + list(T.gradients(loss, {"x": x, "w": w, "b": b}).values())


@pytest.mark.parametrize("extent", [3, 7])
@pytest.mark.parametrize("axis", [0, 1, -2, -3])
@pytest.mark.parametrize("blocks", ["two", "one-cell-each"])
def test_blocked_attention_backward_matches_one_block_bit_for_bit(
    monkeypatch, blocks, axis, extent
):
    # C = 4: A = 3 is at most C, A = 7 exceeds it.  Axis 0 has a single lead
    # cell, so its "two" budget still rebuilds that cell as one block.
    shape = [2, 3, 2, 3, 5]
    shape[axis] = extent
    data = rng(64).standard_normal(shape)
    probe = T.Tensor(rng(65).standard_normal(shape[:-1] + [4]))
    w_data, b_data = rng(66).standard_normal((5, 12)), rng(67).standard_normal(12)
    args = (data, w_data, b_data, probe, axis)
    whole = _attention_run(*args)
    oracle = _attention_run(*args, fused=False)
    lead = math.prod(shape[: axis % len(shape)])
    cell_bytes = math.prod(shape[axis % len(shape) : -1]) * (12 + extent) * 8
    budget = cell_bytes * ((lead + 1) // 2) if blocks == "two" and lead > 1 else 1
    monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
    blocked = _attention_run(*args)
    for got, one, want in zip(blocked, whole, oracle, strict=True):
        assert got.tobytes() == one.tobytes() == want.tobytes()


def test_blocked_attention_gradient_matches_central_differences(monkeypatch):
    # one lead cell per block on axis -3 of a [2, 3, 2, 3] input: each of the
    # two cells rebuilds its projection and P alone
    monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
    data = _offset(rng(68).standard_normal((2, 3, 2, 3)))
    w = T.Tensor(0.5 * rng(69).standard_normal((3, 6)))
    b = T.Tensor(rng(70).standard_normal(6))
    probe = T.Tensor(rng(71).standard_normal((2, 3, 2, 2)))

    def loss(x):
        return (T.attention(x, w, b, axis=-3) * probe).sum()

    x = T.Tensor(data, requires_grad=True)
    analytic = T.gradients(loss(x), {"x": x})["x"]
    numeric = fd_gradient(lambda: float(loss(T.Tensor(data)).data), data)
    assert rel_err(analytic, numeric) < 1e-6


@pytest.mark.parametrize("extent", [3, 4, 7])
@pytest.mark.parametrize("axis", [0, 1])
def test_attention_matches_projection_then_packed_attention_bit_for_bit(extent, axis):
    # C = 4: A = 3 and 4 are at most C, A = 7 exceeds it; every input fits
    # one block, so the node keeps the projection and P
    shape = [3, 3, 5]
    shape[axis] = extent
    data = rng(60).standard_normal(shape)
    probe = T.Tensor(rng(61).standard_normal(shape[:-1] + [4]))
    args = (data, rng(62).standard_normal((5, 12)), rng(63).standard_normal(12), probe, axis)
    for got, want in zip(_attention_run(*args), _attention_run(*args, fused=False), strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "w_shape, axis",
    [
        pytest.param((4, 12), -2, id="input-channels-differ-from-weight-rows"),
        pytest.param((5, 10), -2, id="weight-columns-not-a-multiple-of-3"),
        pytest.param((5, 12), -1, id="attended-axis-is-the-channel-axis"),
        pytest.param((5, 12), 2, id="attended-axis-is-the-channel-axis-counted-forward"),
    ],
)
def test_attention_shape_errors(w_shape, axis):
    x, w, b = T.Tensor(np.ones((2, 3, 5))), T.Tensor(np.ones(w_shape)), T.Tensor(np.ones(w_shape[-1]))
    with pytest.raises(ShapeError):
        T.attention(x, w, b, axis=axis)


def test_gradient_linearity():
    x = T.Tensor(rng(40).standard_normal((3, 3)), requires_grad=True)
    w = T.Tensor(rng(41).standard_normal((3, 3)))

    def loss_one():
        return (T.sigmoid(x @ w)).sum()

    def loss_two():
        return (T.sigmoid(x) * x).sum()

    g1 = T.gradients(loss_one(), {"x": x})["x"]
    g2 = T.gradients(loss_two(), {"x": x})["x"]
    a, b = 0.7, -1.3
    combined = T.gradients(loss_one() * T.Tensor(a) + loss_two() * T.Tensor(b), {"x": x})["x"]
    assert np.max(np.abs(combined - (a * g1 + b * g2))) < 1e-10


def test_unreached_parameter_gets_exact_zero():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    unused = T.Tensor([3.0], requires_grad=True)
    grads = T.gradients((x * x).sum(), {"x": x, "unused": unused})
    assert np.array_equal(grads["unused"], np.zeros(1))
    assert np.allclose(grads["x"], [2.0, 4.0], atol=1e-12)


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(x * x)


def test_repeated_gradients_do_not_accumulate():
    x = T.Tensor([3.0], requires_grad=True)
    first = T.gradients((x * x).sum(), {"x": x})["x"]
    second = T.gradients((x * x).sum(), {"x": x})["x"]
    assert np.array_equal(first, second)


def test_logsumexp_matches_naive():
    x = rng(50).standard_normal((4, 5))
    out = T.logsumexp(T.Tensor(x), axis=-1)
    naive = np.log(np.sum(np.exp(x), axis=-1))
    assert np.allclose(out.data, naive, atol=1e-12)
    assert out.shape == (4,)


def test_shared_node_gradient_counts_both_paths():
    x = T.Tensor([1.5], requires_grad=True)
    y = x * x  # used twice below
    loss = (y + y).sum()
    grads = T.gradients(loss, {"x": x})
    assert np.allclose(grads["x"], [6.0], atol=1e-12)


@pytest.mark.parametrize("first", [0, 1])
def test_pass_through_gradient_is_not_shared(first):
    # add hands the same upstream gradient to both operands; a later
    # contribution to one operand must not reach the other
    p, q = rng(80).standard_normal(3), rng(81).standard_normal(3)
    u = T.Tensor(rng(82).standard_normal(3), requires_grad=True)
    v = T.Tensor(rng(83).standard_normal(3), requires_grad=True)
    terms = [((u + v) * T.Tensor(p)).sum(), (u * T.Tensor(q)).sum()]
    grads = T.gradients(terms[first] + terms[1 - first], {"u": u, "v": v})
    assert np.array_equal(grads["u"], p + q)
    assert np.array_equal(grads["v"], p)


def test_backward_releases_interior_nodes():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = x * x
    T.backward((y * T.Tensor([3.0, 5.0])).sum())
    assert np.allclose(x.grad, [6.0, 20.0], atol=1e-12)
    assert y.grad is None and y._node.parents == ()


def test_second_backward_over_released_graph_is_config_error():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    hidden = T.sigmoid(x)
    loss = (hidden * x).sum()
    T.gradients(loss, {"x": x})
    with pytest.raises(ConfigError, match="released graph"):
        T.gradients(loss, {"x": x})
    with pytest.raises(ConfigError, match="released graph"):
        T.backward((hidden * T.Tensor(2.0)).sum())


def test_no_grad_builds_plain_tensors():
    x = T.Tensor(rng(70).standard_normal((2, 3)), requires_grad=True)
    w = T.Tensor(rng(71).standard_normal((3, 2)), requires_grad=True)
    taped = T.sigmoid(x @ w) * x.sum()
    with T.no_grad():
        nodes = [x * x, x @ w, T.sigmoid(x @ w) * x.sum(), T.linear(x, w, T.Tensor(np.zeros(2)), relu=True)]
    for node in nodes:
        assert not node.requires_grad
        assert node._node is None and node._backward is None
    assert np.array_equal(nodes[2].data, taped.data)
    assert taped.requires_grad


def test_no_grad_nests_and_restores_after_an_exception():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert not (x * x).requires_grad
        assert not (x * x).requires_grad
    assert (x * x).requires_grad
    with pytest.raises(DomainError):
        with T.no_grad():
            T.log(x - 5.0)
    y = x * x
    assert y.requires_grad and y._node.parents == (x._node, x._node)
    assert np.allclose(T.gradients(y.sum(), {"x": x})["x"], [2.0, 4.0], atol=1e-12)


def test_no_grad_in_one_thread_leaves_another_recording():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    inside, built = threading.Event(), threading.Event()
    held = []

    def hold_no_grad():
        with T.no_grad():
            inside.set()
            built.wait(timeout=30)
            held.append(x * x)

    holder = threading.Thread(target=hold_no_grad)
    holder.start()
    try:
        assert inside.wait(timeout=30)
        y = x * x  # built while the other thread is inside no_grad
    finally:
        built.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert y.requires_grad and y._node.parents == (x._node, x._node)
    assert not held[0].requires_grad

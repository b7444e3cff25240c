"""Timing wrappers installed around ``mossl`` from the outside.

``StepClock`` times every train step and eval batch by wrapping the callees
of the training loop (``forward_pass``, ``gradients``, ``adam_step``,
``evaluate``).  It costs a few clock reads per operation and runs in every
workload.  ``Tracer`` is the per-layer trace: it adds spans around the model
blocks and wraps the tape's node constructor, so that forward self time,
backward time, tape nodes and new array bytes are attributed to the block
that created each node.  Both patch module attributes and restore them on
exit; the package source is never changed.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from mossl import augmentation, encoder, gssl, model, mssl, tensor, training
from mossl.errors import MosslError

# Block name -> the module functions whose calls make up that block.
BLOCKS = {
    "encoder.input_project": [(encoder, "input_project")],
    "encoder.modality_attention": [(encoder, "modality_attention")],
    "encoder.spatial_attention": [(encoder, "spatial_attention")],
    "encoder.temporal_conv_layer": [(encoder, "temporal_conv_layer")],
    "augmentation": [
        (augmentation, name)
        for name in ("modality_relevance", "input_mask_probability", "keep_factor", "build_augmented_input")
    ],
    "gssl.mixture_state": [(gssl, "mixture_state")],
    "gssl.gssl_loss": [(gssl, "gssl_loss")],
    "mssl": [(mssl, name) for name in ("fuse", "modality_context", "mssl_loss")],
    "model.predict": [(model, "predict")],
}
# Nodes created in forward_pass outside every block (input reshape, the
# encoder's concat of the three views, the loss arithmetic).
UNBLOCKED = "model.forward_pass"
# Tape op kinds whose backward time is reported; the kind is the op function
# that defined the node's backward closure.
OP_KINDS = (
    "linear",
    "matmul",
    "dilated_causal_conv",
    "softmax",
    "transpose",
    "concat",
    "mul",
    "add",
    "reshape",
    "reduce_sum",
)

clock = time.perf_counter


@dataclass
class Op:
    """One train step (forward, backward, Adam) or one eval batch."""

    kind: str  # "train" or "eval"
    windows: int
    start: float
    end: float = 0.0
    forward_s: float = 0.0
    backward_s: float = 0.0
    adam_s: float = 0.0
    batching_s: float | None = None  # gap since the previous step's Adam update
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    # filled only while a Tracer is installed
    fwd: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    bwd: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    nodes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    op_bwd: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def seconds(self) -> float:
        return self.end - self.start


@contextmanager
def patched(replacements):
    """Set ``(module, name, value)`` attributes for the duration of the block."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    for module, name, value in replacements:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def check_result(op: Op, x: np.ndarray, res, output_steps: int) -> None:
    """Record every way a forward result is malformed on ``op.problems``."""
    expected = (x.shape[0], output_steps) + x.shape[2:]
    pred = res.predictions.data
    if pred.shape != expected:
        op.problems.append(f"predictions shape {pred.shape}, expected {expected}")
    if not np.isfinite(pred).all():
        op.problems.append("non-finite predictions")
    if op.kind == "train":
        if res.total is None or res.total.data.shape != ():
            op.problems.append("training forward gave no scalar loss")
        else:
            for name, part in res.parts.items():
                if not np.isfinite(part.data):
                    op.problems.append(f"non-finite {name} loss")
            if not np.isfinite(res.total.data):
                op.problems.append("non-finite total loss")


def fingerprint(res) -> str:
    """Exact digest of an operation's predictions and loss, for bitwise comparison."""
    h = hashlib.blake2b(res.predictions.data.tobytes(), digest_size=16)
    if res.total is not None:
        h.update(res.total.data.tobytes())
    return h.hexdigest()


class StepClock:
    """Records an ``Op`` per forward pass and the time of every ``evaluate`` call."""

    def __init__(self, output_steps: int):
        self.output_steps = output_steps
        self.ops: list[Op] = []
        self.current: Op | None = None
        self.evaluate_s: dict[str, list[float]] = defaultdict(list)  # by split
        self._adam_end: float | None = None

    def installed(self):
        forward_pass = training.forward_pass
        gradients = training.gradients
        adam_step = training.adam_step
        evaluate = training.evaluate

        def timed_forward(*args, **kwargs):
            start = clock()
            op = Op("train" if kwargs.get("training", True) else "eval", len(args[4]), start)
            if op.kind == "train" and self._adam_end is not None:
                op.batching_s = start - self._adam_end
            self.current = op
            self.ops.append(op)
            try:
                res = forward_pass(*args, **kwargs)
            except MosslError as exc:
                op.problems.append(f"{type(exc).__name__}: {exc}")
                raise
            op.end = clock()
            op.forward_s = op.end - start
            check_result(op, args[4], res, self.output_steps)
            op.digest = fingerprint(res)
            return res

        def timed_gradients(loss, params):
            start = clock()
            grads = gradients(loss, params)
            self.current.backward_s = clock() - start
            return grads

        def timed_adam(*args, **kwargs):
            start = clock()
            adam_step(*args, **kwargs)
            self._adam_end = op_end = clock()
            self.current.adam_s = op_end - start
            self.current.end = op_end

        def timed_evaluate(params, model_cfg, prepared, split, *args, **kwargs):
            # every training call ends with an evaluate, so no batching gap
            # spans an evaluate or two calls
            self._adam_end = None
            start = clock()
            metrics = evaluate(params, model_cfg, prepared, split, *args, **kwargs)
            self.evaluate_s[split].append(clock() - start)
            return metrics

        return patched(
            [
                (training, "forward_pass", timed_forward),
                (training, "gradients", timed_gradients),
                (training, "adam_step", timed_adam),
                (training, "evaluate", timed_evaluate),
            ]
        )


class Tracer:
    """Per-layer spans and tape-node accounting, charged to ``StepClock.current``."""

    def __init__(self, step_clock: StepClock):
        self.step_clock = step_clock
        self.stack: list[list] = []  # [block, seconds spent in child spans]

    def installed(self):
        replacements = [
            (module, name, self._span(block, getattr(module, name)))
            for block, targets in BLOCKS.items()
            for module, name in targets
        ]
        replacements.append((tensor, "_make", self._node(tensor._make)))
        return patched(replacements)

    def _span(self, block: str, fn):
        def spanned(*args, **kwargs):
            frame = [block, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                self.step_clock.current.fwd[block] += elapsed - frame[1]

        return spanned

    def _node(self, make):
        def traced_make(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            op = self.step_clock.current
            block = self.stack[-1][0] if self.stack else UNBLOCKED
            # a view of an operand allocates nothing new
            if not any(np.may_share_memory(out.data, p.data) for p in parents):
                op.bytes[block] += out.data.nbytes
            if out._backward is not None:
                op.nodes[block] += 1
                kind = backward_fn.__qualname__.partition(".")[0]
                out._backward = self._timed_backward(backward_fn, block, kind)
            return out

        return traced_make

    def _timed_backward(self, fn, block: str, kind: str):
        def backward_fn(g):
            start = clock()
            fn(g)
            elapsed = clock() - start
            op = self.step_clock.current
            op.bwd[block] += elapsed
            op.op_bwd[kind] += elapsed

        return backward_fn

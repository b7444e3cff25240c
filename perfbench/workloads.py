"""The three benchmark workloads and the loop that measures one of them.

A workload is a synthetic series recipe, a split, a model shape and either a
training configuration (``train()`` then ``evaluate()`` on the test split)
or none (``evaluate()`` on the test split with freshly initialised
parameters).  Every input derives from the run's seed.  See ``NOTES.md`` for
why each workload exists and what each metric is expected to move.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

from mossl import training
from mossl.data import SplitSpec, SynthSpec, prepare_windows, synth_generate
from mossl.errors import MosslError
from mossl.model import AblationFlags, LossWeights, ModelConfig, ModelDims, init_params
from mossl.training import Metrics, TrainConfig

from probes import BLOCKS, OP_KINDS, Op, StepClock, Tracer, clock


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthSpec fields
    split: tuple[float, float, float]
    input_steps: int
    output_steps: int
    model: ModelConfig
    train: TrainConfig | None  # None: the workload only evaluates
    eval_batch: int  # batch of the evaluate() call on the test split
    windows: dict[str, int]  # window count per split, checked after set-up


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance criterion 6's setup with one epoch per train() call.
        Workload(
            name="small-train",
            synth=dict(
                nodes=6,
                modalities=3,
                steps=2000,
                regimes=2,
                coupling=[
                    [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.1, 0.3, 0.6]],
                    [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]],
                ],
                noise=0.1,
            ),
            split=(0.7, 0.1, 0.2),
            input_steps=8,
            output_steps=3,
            model=ModelConfig(hidden=16, layers=3, kernel_size=2, dilations=(1, 2, 4), mixture_components=3),
            train=TrainConfig(
                epochs=1,
                batch_size=16,
                learning_rate=2e-3,
                loss_weights=LossWeights(forecast=1.0, mixture=0.05, contrast=0.2),
                early_stop_patience=None,
            ),
            eval_batch=64,
            windows={"train": 1390, "val": 189, "test": 391},
        ),
        # Paper shape (ModelConfig defaults, N=98, M=4, T=16) at B=2, the
        # largest batch with headroom on an 8 GB machine.  No val split:
        # train() evaluates val at evaluate()'s default batch of 64, which
        # needs about 24 GB at this shape.
        Workload(
            name="paper-train",
            synth=dict(nodes=98, modalities=4, steps=44, noise=0.1),
            split=(0.55, 0.0, 0.45),
            input_steps=16,
            output_steps=3,
            model=ModelConfig(),
            train=TrainConfig(epochs=1, batch_size=2, early_stop_patience=None),
            eval_batch=4,
            windows={"train": 6, "val": 0, "test": 2},
        ),
        # Forward-only evaluate() at the paper shape, batch 4.
        Workload(
            name="paper-eval",
            synth=dict(nodes=98, modalities=4, steps=76, noise=0.1),
            split=(0.5, 0.0, 0.5),
            input_steps=16,
            output_steps=3,
            model=ModelConfig(),
            train=None,
            eval_batch=4,
            windows={"train": 20, "val": 0, "test": 20},
        ),
    )
}

# One set-up takes 5-15 ms, too short to time alone, so before every call a
# block of set-ups runs back to back and is timed as one sample of 40-120 ms;
# setup_s is the median over the run's blocks of block time / block size.
SETUP_BLOCK = 8

# A shared machine's speed can drift for minutes at a time.  A fixed GEMM and
# a fixed Python loop, timed before every call, show which state a run was in.
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((384, 384))


@dataclass
class Call:
    """One timed call into mossl: train() plus a test evaluate(), or evaluate() alone."""

    seconds: float  # wall time of train(), or of evaluate() when not training
    windows: int
    ops: list[Op]
    metrics: Metrics
    train_loss: float | None = None
    val_rmse: float | None = None

    def outcome(self) -> tuple:
        """Everything that must repeat bit for bit under the same seed."""
        return (
            [op.digest for op in self.ops],
            self.train_loss,
            self.val_rmse,
            self.metrics.to_json_dict(),
        )


@dataclass
class Run:
    workload: Workload
    first_setup_s: float = 0.0  # the run's first, cold set-up
    setups: list[dict] = field(default_factory=list)  # per-set-up means of each block
    calibration: list[dict] = field(default_factory=list)  # one per call
    rss_after_warmup_mb: float = 0.0
    untraced: list[Call] = field(default_factory=list)
    traced: list[Call] = field(default_factory=list)
    evaluate_s: list[float] = field(default_factory=list)  # test split, traced calls
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def set_up(w: Workload, seed: int):
    """The set-up every user of a workload pays: series, windows, parameters."""
    start = clock()
    series = synth_generate(SynthSpec(**w.synth), seed)
    generated = clock()
    prepared = prepare_windows(series, SplitSpec(*w.split), w.input_steps, w.output_steps)
    windowed = clock()
    dims = ModelDims(w.input_steps, w.output_steps, len(prepared.node_ids), len(prepared.modality_names))
    params = init_params(w.model, dims, AblationFlags(), seed)
    done = clock()
    timings = {
        "data.synth_generate_s": generated - start,
        "data.prepare_windows_s": windowed - generated,
        "model.init_params_s": done - windowed,
        "setup_s": done - start,
    }
    return prepared, params, timings


def setup_block(w: Workload, seed: int) -> dict:
    """Mean timings of ``SETUP_BLOCK`` set-ups run back to back, timed as one."""
    parts: dict[str, float] = {}
    start = clock()
    for _ in range(SETUP_BLOCK):
        for name, seconds in set_up(w, seed)[2].items():
            parts[name] = parts.get(name, 0.0) + seconds
    block_s = clock() - start
    means = {name: total / SETUP_BLOCK for name, total in parts.items()}
    means["setup_s"] = block_s / SETUP_BLOCK
    return means


def calibrate() -> dict:
    start = clock()
    for _ in range(10):
        _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    gemm = clock()
    total = 0
    for i in range(200_000):
        total += i * i
    return {"gemm_s": gemm - start, "loop_s": clock() - gemm}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_call(w: Workload, seed: int, prepared, params, step_clock: StepClock) -> Call:
    first_op = len(step_clock.ops)
    start = clock()
    if w.train is None:
        metrics = training.evaluate(params, w.model, prepared, "test", batch_size=w.eval_batch)
        return Call(clock() - start, w.windows["test"], step_clock.ops[first_op:], metrics)
    result = training.train(prepared, w.model, w.train, seed, quiet=True)
    seconds = clock() - start
    metrics = training.evaluate(result.params, w.model, prepared, "test", batch_size=w.eval_batch)
    last = result.history[-1]
    return Call(
        seconds,
        w.windows["train"] * w.train.epochs,
        step_clock.ops[first_op:],
        metrics,
        train_loss=last["loss"],
        val_rmse=last.get("val_rmse"),
    )


def measure(call, budget: float, min_calls: int) -> list[Call]:
    """Repeat ``call`` while one more is expected to end within ``budget`` seconds."""
    calls = []
    start = clock()
    while True:
        calls.append(call())
        elapsed = clock() - start
        if len(calls) >= min_calls and elapsed * (len(calls) + 1) / len(calls) > budget:
            return calls


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(w)
    prepared, params, timings = set_up(w, seed)
    run.first_setup_s = timings["setup_s"]
    for split, expected in w.windows.items():
        if prepared.splits[split].count != expected:
            run.problems.append(f"{split} split has {prepared.splits[split].count} windows, expected {expected}")

    step_clock = StepClock(w.output_steps)
    tracer = Tracer(step_clock)

    def call():
        run.setups.append(setup_block(w, seed))
        run.calibration.append(calibrate())
        done = one_call(w, seed, prepared, params, step_clock)
        if not run.rss_after_warmup_mb:
            run.rss_after_warmup_mb = rss_mb()
        return done

    try:
        with step_clock.installed():
            # the first call warms the allocator up and is not timed, so
            # every run makes one timed untraced call at least
            if not trace:
                run.untraced = measure(call, seconds, min_calls=2)
            else:
                run.untraced = measure(call, seconds / 2, min_calls=2)
                untraced_tests = len(step_clock.evaluate_s["test"])
                with tracer.installed():
                    run.traced = measure(call, seconds / 2, min_calls=1)
                run.evaluate_s = step_clock.evaluate_s["test"][untraced_tests:]
    except MosslError as exc:
        if not (step_clock.ops and step_clock.ops[-1].problems):
            run.problems.append(f"{type(exc).__name__}: {exc}")
    # set-up checks and errors outside forward_pass each count as one failure
    run.failed = len(run.problems)

    run.attempted = len(step_clock.ops)
    for op in step_clock.ops:
        run.failed += bool(op.problems)
        run.problems.extend(op.problems)
    calls = run.untraced + run.traced
    for later in calls[1:]:
        if later.outcome() != calls[0].outcome():
            run.problems.append("a repeated call with the same seed gave different losses or metrics")
            mismatched = sum(a != b for a, b in zip(calls[0].outcome()[0], later.outcome()[0]))
            run.failed += max(mismatched, 1)
    return run


def _primary(w: Workload, calls: list[Call]) -> list:
    """The workload's own operations: train steps, or eval batches when it only evaluates."""
    kind = "eval" if w.train is None else "train"
    return [op for c in calls for op in c.ops if op.kind == kind]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    calls = run.untraced[1:]
    ops = _primary(run.workload, calls)
    return {
        "setup_s": _median(s["setup_s"] for s in run.setups),
        "windows_per_s": _median(c.windows / c.seconds for c in calls),
        "op_s.p50": _median(op.seconds for op in ops),
        "peak_rss_mb": rss_mb(),
        "rmse": run.untraced[0].metrics.mean_rmse,
    }


DETAIL_UNITS = {
    "timed_calls": "count",
    "timed_ops": "count",
    "setup_s.first": "s",
    "setup_blocks": "count",
    "calibration.gemm_s": "s",
    "calibration.loop_s": "s",
    "peak_rss_mb.after_warmup": "MB",
    "op_s.p90": "s",
    "epoch_s.p50": "s",
    "train_loss": "loss",
    "val_rmse": "denormalized",
}


def details(run: Run) -> dict:
    """Numbers that apply to some workloads only; kept in the results file."""
    w = run.workload
    calls = run.untraced[1:]
    ops = _primary(w, calls)
    out = {
        "timed_calls": len(calls),
        "timed_ops": len(ops),
        "setup_s.first": run.first_setup_s,
        "setup_blocks": len(run.setups),
        "calibration.gemm_s": _median(c["gemm_s"] for c in run.calibration),
        "calibration.loop_s": _median(c["loop_s"] for c in run.calibration),
        "peak_rss_mb.after_warmup": run.rss_after_warmup_mb,
    }
    if len(ops) >= 100:
        out["op_s.p90"] = statistics.quantiles([op.seconds for op in ops], n=10)[-1]
    if w.train is not None:
        out["epoch_s.p50"] = _median(c.seconds / w.train.epochs for c in calls)
        out["train_loss"] = calls[0].train_loss
        if calls[0].val_rmse is not None:
            out["val_rmse"] = calls[0].val_rmse
    return out


def per_layer(run: Run) -> dict[str, float]:
    w = run.workload
    ops = _primary(w, run.traced)[1:]  # the first traced op warms the tracer up
    out: dict[str, float] = {}
    for block in BLOCKS:
        out[f"{block}.fwd_s"] = _median(op.fwd[block] for op in ops)
        out[f"{block}.bwd_s"] = _median(op.bwd[block] for op in ops)
        out[f"{block}.nodes"] = _median(op.nodes[block] for op in ops)
        out[f"{block}.bytes"] = _median(op.bytes[block] for op in ops)
    out["model.forward_pass_s"] = _median(op.forward_s for op in ops)
    out["tensor.backward_s"] = _median(op.backward_s for op in ops)
    out["tensor.nodes"] = _median(sum(op.nodes.values()) for op in ops)
    out["tensor.bytes"] = _median(sum(op.bytes.values()) for op in ops)
    out["tensor.bytes_per_window"] = _median(sum(op.bytes.values()) / op.windows for op in ops)
    for kind in OP_KINDS:
        out[f"tensor.op.{kind}.bwd_s"] = _median(op.op_bwd[kind] for op in ops)
    out["training.adam_step_s"] = _median(op.adam_s for op in ops)
    out["training.batching_s"] = _median(op.batching_s for op in ops if op.batching_s is not None)
    out["training.evaluate_s"] = _median(run.evaluate_s)
    for name in ("data.synth_generate_s", "data.prepare_windows_s", "model.init_params_s"):
        out[name] = _median(s[name] for s in run.setups)
    untraced = _primary(w, run.untraced[1:])
    out["trace.overhead_s"] = _median(op.seconds for op in ops) - _median(op.seconds for op in untraced)
    out["trace.coverage"] = _median(
        sum(op.fwd[b] + op.bwd[b] for b in BLOCKS) / (op.forward_s + op.backward_s) for op in ops
    )
    return out


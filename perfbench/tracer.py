"""In-memory span tracer that wraps fsqnet's functions where their callers look them up.

Each wrapped function records one span per call: name, layer, thread, parent
span, request (the benchmark operation that was active) and start/end times.
Spans stay in memory until the run ends.  ``Tracer.installed()`` restores
every original attribute on exit, also when the traced code raised.

Self time of a span is its duration minus that of its children on the same
thread.  The benchmark's own root spans (``bench.*``) carry the time no
wrapped function accounts for, reported as the unattributed remainder.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import fsqnet.checkpoint
import fsqnet.cli
import fsqnet.data
import fsqnet.model
import fsqnet.train

LAYERS = ("data", "ops", "model", "train", "checkpoint", "cli")

_OPS = (
    "conv2d_forward", "conv2d_backward", "relu", "relu_backward", "maxpool2d",
    "maxpool2d_backward", "channel_concat", "channel_split", "global_avg_pool",
    "global_avg_pool_backward", "dense_forward", "dense_backward", "dropout_mask", "softmax",
)

# (module, attribute, layer): every call site the benchmark attributes.  A
# function imported into several modules is wrapped once per importing module,
# so each call passes through exactly one wrapper.  Entries on a function's
# own module catch the calls the benchmark makes through that module.
TARGETS = (
    *((fsqnet.model, name, "ops") for name in _OPS),
    (fsqnet.data, "load_dataset", "data"),
    (fsqnet.data, "resize_dataset", "data"),
    (fsqnet.data, "shuffle_split", "data"),
    (fsqnet.data, "load_image", "data"),
    (fsqnet.data, "resize_bilinear", "data"),
    (fsqnet.data, "compute_channel_means", "data"),
    (fsqnet.model, "build_model", "model"),
    (fsqnet.checkpoint, "save_checkpoint", "checkpoint"),
    (fsqnet.checkpoint, "load_checkpoint", "checkpoint"),
    (fsqnet.train, "augment", "data"),
    (fsqnet.train, "normalize", "data"),
    (fsqnet.train, "model_forward", "model"),
    (fsqnet.train, "model_backward", "model"),
    (fsqnet.train, "cross_entropy", "train"),
    (fsqnet.train, "sgd_step", "train"),
    (fsqnet.train, "evaluate", "train"),
    (fsqnet.train, "train_epoch", "train"),
    (fsqnet.train, "clone_params", "model"),
    (fsqnet.cli, "load_dataset", "data"),
    (fsqnet.cli, "load_image", "data"),
    (fsqnet.cli, "resize_bilinear", "data"),
    (fsqnet.cli, "resize_dataset", "data"),
    (fsqnet.cli, "normalize", "data"),
    (fsqnet.cli, "shuffle_split", "data"),
    (fsqnet.cli, "build_model", "model"),
    (fsqnet.cli, "model_forward", "model"),
    (fsqnet.cli, "evaluate", "train"),
    (fsqnet.cli, "fit", "train"),
    (fsqnet.cli, "load_checkpoint", "checkpoint"),
    (fsqnet.cli, "save_checkpoint", "checkpoint"),
    (fsqnet.cli, "main", "cli"),
)


def conv_kind(spec) -> str:
    """Conv family a ConvSpec belongs to: the RGB stem, 1x1 or 3x3."""
    if spec.in_channels == 3:
        return "stem"
    return f"{spec.kernel_h}x{spec.kernel_w}"


def _conv_attrs(x, spec) -> dict:
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    macs = n * oh * ow * spec.out_channels * spec.in_channels * spec.kernel_h * spec.kernel_w
    return {"kind": conv_kind(spec), "n": n, "macs": macs}


# Arguments worth keeping on a span, by wrapped function name.
_ATTRS = {
    "conv2d_forward": lambda x, weight, bias, spec: _conv_attrs(x, spec),
    "conv2d_backward": lambda x, weight, spec, d_out: _conv_attrs(x, spec),
    "model_forward": lambda model, batch, training=False, dropout_seed=None: {
        "n": batch.shape[0], "training": bool(training)},
    "model_backward": lambda model, d_logits: {"n": d_logits.shape[0]},
    "evaluate": lambda model, dataset: {"n": len(dataset.samples)},
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    thread: str
    parent: int | None
    request: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped fsqnet functions and from benchmark operations."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: int | None = None
        self._suspended = False
        self._originals: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, layer, fn, args, kwargs, attrs_fn, request_root=False):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        if request_root:
            self._request = sid
        request = self._request
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            self.spans.append(Span(sid, name, layer, threading.current_thread().name,
                                   parent, request, start, end, attrs))

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        attrs_fn = _ATTRS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            return tracer._record(name, layer, fn, args, kwargs, attrs_fn)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        try:
            for module, attr, layer in TARGETS:
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer))
            yield self
        finally:
            while self._originals:
                module, attr, original = self._originals.pop()
                setattr(module, attr, original)

    def operation(self, kind: str, fn, *args, **kwargs):
        """Run fn as one benchmark operation: a root span ``bench.<kind>``."""
        if self._suspended:
            return fn(*args, **kwargs)
        return self._record(f"bench.{kind}", "bench", fn, args, kwargs, None, request_root=True)

    @contextlib.contextmanager
    def suspended(self):
        """Calls inside the block record nothing (used around output checks)."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def write_jsonl(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines, times relative to the tracer's start."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id, "name": s.name, "layer": s.layer, "thread": s.thread,
                    "parent": s.parent, "request": s.request,
                    "start": s.start - self.origin, "end": s.end - self.origin,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced runs: operations run with no recording."""

    @staticmethod
    def operation(kind, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    @contextlib.contextmanager
    def suspended():
        yield


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_total: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_total.get(s.id, 0.0) for s in spans}


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def layer_attribution(spans: list[Span], kinds: tuple[str, ...]) -> dict:
    """Self time per layer on the thread of each ``bench.<kind>`` root, plus the remainder.

    Spans on other threads (the training prefetch thread) overlap the main
    thread, so they are reported apart as concurrent time and are not part of
    the sum.  Self times plus the remainder equal the roots' total duration.
    """
    roots = [s for s in spans if s.layer == "bench" and s.name.split(".", 1)[1] in kinds]
    root_ids = {s.id for s in roots}
    main_threads = {s.thread for s in roots}
    selfs = self_times(spans)
    in_scope: set[int] = set(root_ids)
    # spans are appended when they end, so a parent follows its children: walk from the end
    for s in reversed(spans):
        if s.parent in in_scope and s.thread in main_threads:
            in_scope.add(s.id)
    per_layer = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.id in in_scope and s.id not in root_ids:
            per_layer[s.layer] += selfs[s.id]
    concurrent = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.thread not in main_threads and s.request in root_ids:
            concurrent[s.layer] += selfs[s.id]
    total = sum(s.duration for s in roots)
    unattributed = sum(selfs[s.id] for s in roots)
    return {
        "total_s": total,
        "self_s": per_layer,
        "unattributed_s": unattributed,
        "sum_check_s": sum(per_layer.values()) + unattributed - total,
        "concurrent_s": concurrent,
    }


def _anchor_sequence(steps, backward: bool) -> list[tuple[str, str]]:
    """(op name, network layer) of the ops that mark each plan step, in call order."""
    forward_ops = {"conv": ("conv2d_forward",), "pool": ("maxpool2d",),
                   "fire": ("conv2d_forward",) * 3, "gap": ("global_avg_pool",),
                   "dense": ("dense_forward",), "softmax": ("softmax",)}
    backward_ops = {"conv": ("conv2d_backward",), "pool": ("maxpool2d_backward",),
                    "fire": ("conv2d_backward",) * 3, "gap": ("global_avg_pool_backward",),
                    "dense": ("dense_backward",)}
    table = backward_ops if backward else forward_ops
    seq = []
    for step in (reversed(steps) if backward else steps):
        layer = step.name if step.kind in ("conv", "pool", "fire") else "head"
        seq.extend((f"ops.{op}", layer) for op in table.get(step.kind, ()))
    return seq


def network_layer_times(walk: Span, kids: dict[int, list[Span]], steps, backward: bool):
    """Network layer -> seconds of op time inside one model_forward/model_backward span.

    Ops are matched in call order to the plan: a conv, pool, GAP, dense or
    softmax op marks its step.  Forward, other ops (ReLU, concat, dropout)
    belong to the step of the last marker; backward, to the next marker,
    since each ReLU gradient is computed just before its layer's backward.
    Returns None when the call order does not match the plan.
    """
    anchors = _anchor_sequence(steps, backward)
    anchor_names = {name for name, _ in anchors}
    times: dict[str, float] = {}
    pending = 0.0
    current = anchors[0][1] if anchors else "head"
    for op in kids.get(walk.id, []):
        if op.name in anchor_names:
            if not anchors or op.name != anchors[0][0]:
                return None
            current = anchors.pop(0)[1]
            times[current] = times.get(current, 0.0) + op.duration + pending
            pending = 0.0
        elif backward:
            pending += op.duration
        else:
            times[current] = times.get(current, 0.0) + op.duration
    if anchors:
        return None
    times["head"] = times.get("head", 0.0) + pending
    return times


_ELEMENTWISE = {f"ops.{name}" for name in (
    "relu", "relu_backward", "channel_concat", "channel_split", "global_avg_pool",
    "global_avg_pool_backward", "softmax", "dropout_mask")}


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _per(value: float, count: float, scale: float = 1e3) -> float | None:
    return value * scale / count if count else None


def layer_metrics(spans: list[Span], steps, measured: tuple[str, ...]) -> dict:
    """Per-layer figures from one traced run, normalised per image or per step.

    `steps` is the model's layer plan and `measured` the benchmark operation
    kinds whose time the layer shares are taken over.  A figure whose
    denominator is zero in this run (no backward pass in inference) is left out.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.id: s for s in spans}
    kids = _children(spans)
    forwards = by_name.get("model.model_forward", [])
    backwards = by_name.get("model.model_backward", [])
    fwd_train = [s for s in forwards if s.attrs["training"]]
    fwd_eval = [s for s in forwards if not s.attrs["training"]]
    n_fwd = sum(s.attrs["n"] for s in forwards)
    n_fwd_train = sum(s.attrs["n"] for s in fwd_train)
    n_fwd_eval = sum(s.attrs["n"] for s in fwd_eval)
    n_bwd = sum(s.attrs["n"] for s in backwards)
    m: dict[str, float | None] = {}

    for kind in ("stem", "1x1", "3x3"):
        fwd = [s for s in by_name.get("ops.conv2d_forward", []) if s.attrs["kind"] == kind]
        bwd = [s for s in by_name.get("ops.conv2d_backward", []) if s.attrs["kind"] == kind]
        m[f"ops.conv_fwd.{kind}.ms_per_image"] = _per(_total(fwd), n_fwd)
        m[f"ops.conv_bwd.{kind}.ms_per_image"] = _per(_total(bwd), n_bwd)
        m[f"ops.conv.{kind}.ms_per_image"] = _per(_total(fwd) + _total(bwd), n_fwd)
        m[f"ops.conv_fwd.{kind}.gmacs_per_s"] = _per(
            sum(s.attrs["macs"] for s in fwd), _total(fwd), 1e-9)
        m[f"ops.conv_bwd.{kind}.gmacs_per_s"] = _per(
            sum(s.attrs["macs"] for s in bwd), _total(bwd), 1e-9)
        m[f"trace.conv_fwd.{kind}.macs_per_image"] = _per(
            sum(s.attrs["macs"] for s in fwd), n_fwd, 1.0)

    pool_f = _total(by_name.get("ops.maxpool2d", []))
    pool_b = _total(by_name.get("ops.maxpool2d_backward", []))
    dense_f = _total(by_name.get("ops.dense_forward", []))
    dense_b = _total(by_name.get("ops.dense_backward", []))
    m["ops.maxpool_fwd.ms_per_image"] = _per(pool_f, n_fwd)
    m["ops.maxpool_bwd.ms_per_image"] = _per(pool_b, n_bwd)
    m["ops.maxpool.ms_per_image"] = _per(pool_f + pool_b, n_fwd)
    m["ops.dense_fwd.ms_per_image"] = _per(dense_f, n_fwd)
    m["ops.dense_bwd.ms_per_image"] = _per(dense_b, n_bwd)
    m["ops.dense.ms_per_image"] = _per(dense_f + dense_b, n_fwd)
    m["ops.elementwise.ms_per_image"] = _per(
        sum(_total(v) for k, v in by_name.items() if k in _ELEMENTWISE), n_fwd)

    m["model.forward_train_ms_per_image"] = _per(_total(fwd_train), n_fwd_train)
    m["model.forward_eval_ms_per_image"] = _per(_total(fwd_eval), n_fwd_eval)
    m["model.backward_ms_per_image"] = _per(_total(backwards), n_bwd)
    layer_fwd: dict[str, float] = {}
    layer_bwd: dict[str, float] = {}
    mismatched = 0
    for walks, sink, backward in ((forwards, layer_fwd, False), (backwards, layer_bwd, True)):
        for walk in walks:
            times = network_layer_times(walk, kids, steps, backward)
            if times is None:
                mismatched += 1
                continue
            for layer, t in times.items():
                sink[layer] = sink.get(layer, 0.0) + t
    m["trace.layer_order_mismatches"] = float(mismatched)
    for layer in sorted(set(layer_fwd) | set(layer_bwd)):
        m[f"model.layer.{layer}.fwd_ms"] = _per(layer_fwd.get(layer, 0.0), n_fwd)
        m[f"model.layer.{layer}.bwd_ms"] = _per(layer_bwd.get(layer, 0.0), n_bwd)
        m[f"model.layer.{layer}.ms_per_image"] = _per(
            layer_fwd.get(layer, 0.0) + layer_bwd.get(layer, 0.0), n_fwd)

    epochs = by_name.get("train.train_epoch", [])
    sgd = by_name.get("train.sgd_step", [])
    wait = 0.0
    for epoch in epochs:
        mark = epoch.start
        for child in kids.get(epoch.id, []):
            if child.name == "model.model_forward" and child.attrs["training"]:
                wait += child.start - mark
            elif child.name == "train.sgd_step":
                mark = child.end
    m["train.data_wait_ms_per_step"] = _per(wait, len(sgd))
    m["train.sgd_step_ms_per_step"] = _per(_total(sgd), len(sgd))
    m["train.cross_entropy_ms_per_step"] = _per(
        _total(by_name.get("train.cross_entropy", [])), len(sgd))
    validations = [s for s in by_name.get("train.evaluate", [])
                   if s.parent is not None and by_id[s.parent].name == "train.train_epoch"]
    m["train.validate_s_per_epoch"] = _per(_total(validations), len(epochs), 1.0)
    conv_in_epochs = sum(
        s.duration for s in by_name.get("ops.conv2d_forward", [])
        if _ancestor_named(s, by_id, "train.train_epoch"))
    m["trace.conv_fwd_share_of_epoch"] = _per(conv_in_epochs, _total(epochs), 1.0)

    resizes = [s for s in by_name.get("data.resize_bilinear", [])
               if s.parent is None or by_id[s.parent].name != "data.augment"]
    for metric, group in (("decode", by_name.get("data.load_image", [])),
                          ("resize", resizes),
                          ("augment", by_name.get("data.augment", [])),
                          ("normalize", by_name.get("data.normalize", []))):
        m[f"data.{metric}_ms_per_image"] = _per(_total(group), len(group))
    for metric, name in (("load", "checkpoint.load_checkpoint"),
                         ("save", "checkpoint.save_checkpoint")):
        durations = [s.duration * 1e3 for s in by_name.get(name, [])]
        m[f"checkpoint.{metric}_ms"] = statistics.median(durations) if durations else None
    selfs = self_times(spans)
    mains = by_name.get("cli.main", [])
    m["cli.self_ms_per_call"] = _per(sum(selfs[s.id] for s in mains), len(mains))

    attribution = layer_attribution(spans, measured)
    total = attribution["total_s"]
    for layer, t in attribution["self_s"].items():
        m[f"layer.{layer}.self_share"] = _per(t, total, 1.0)
    m["trace.unattributed_share"] = _per(attribution["unattributed_s"], total, 1.0)
    return {"metrics": {k: v for k, v in m.items() if v is not None},
            "attribution": attribution}


def _ancestor_named(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id[parent]
        if node.name == name:
            return True
        parent = node.parent
    return False

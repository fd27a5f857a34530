"""The benchmark's workloads: inputs from a seed, set-up, the timed loop and the output checks.

Every workload drives fsqnet the way a user does, through ``fsqnet.cli.main``
with the same flags as the command line, in this process.  Each one has a main
job (training epochs, or ``fsqnet eval`` batches) followed by a closed loop of
sequential ``fsqnet predict`` calls from one client on the checkpoint the job
used, so every workload reports the same end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fsqnet.checkpoint
import fsqnet.cli
import fsqnet.data
import fsqnet.model
import fsqnet.synthetic
from fsqnet.train import History
from hostspeed import HostProbe

VAL_FRACTION = 0.1  # the CLI default; the benchmark passes it explicitly
SETUP_REPEATS = 5
PREDICT_SHARE = 0.4  # share of the timed window given to predict calls while it lasts
MIN_MAIN_CALLS = 2  # so that a job whose one call outlasts the window still gives two samples
P_TOLERANCE = 1e-6  # predict's printed p against a direct model_forward
ROW_SUM_TOLERANCE = 1e-5
MAX_MESSAGES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    arch: str  # "v11" or "tiny"
    image_size: int
    source_size: int  # synthetic images are written larger, so resize does real work
    classes: int
    per_class: int
    batch: int | None  # training batch; None for the inference workload
    epochs: int  # epochs per `fsqnet train` call
    min_predicts: int

    @property
    def trains(self) -> bool:
        return self.batch is not None

    def model_config(self):
        if self.arch == "tiny":
            return fsqnet.model.tiny_config(num_classes=self.classes, input_size=self.image_size)
        return fsqnet.model.ModelConfig(num_classes=self.classes, input_size=self.image_size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-v11-244",
            why="paper-scale v1.1 training at 244 px, batch 8: conv forward and backward do "
                "almost all the work",
            arch="v11", image_size=244, source_size=272, classes=2, per_class=5,
            batch=8, epochs=1, min_predicts=10,
        ),
        Workload(
            name="train-tiny-32",
            why="tiny net at 32 px, batch 32: augment, normalize, prefetch, per-call "
                "overhead and SGD take a large share",
            arch="tiny", image_size=32, source_size=40, classes=4, per_class=72,
            batch=32, epochs=4, min_predicts=20,
        ),
        Workload(
            name="infer-v11-244",
            why="v1.1 forward only: fsqnet eval of 8 images in one batch, and sequential "
                "fsqnet predict calls that each load the checkpoint",
            arch="v11", image_size=244, source_size=272, classes=2, per_class=4,
            batch=None, epochs=0, min_predicts=10,
        ),
    )
}


class _LineClock:
    """Stand-in stdout that timestamps every complete line written to it."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class CliCall:
    code: int
    start: float
    end: float
    lines: list[tuple[float, str]]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def json_lines(self) -> list:
        return [json.loads(text) for _, text in self.lines]


def run_cli(argv: list[str]) -> CliCall:
    """fsqnet.cli.main(argv) with its stdout captured line by line."""
    clock = _LineClock()
    start = time.perf_counter()
    with contextlib.redirect_stdout(clock):
        code = fsqnet.cli.main(argv)
    return CliCall(code, start, time.perf_counter(), clock.lines)


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.messages.extend(problems[: MAX_MESSAGES - len(self.messages)])


def _finite_unit(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_train_call(wl: Workload, call: CliCall, checkpoint: Path, labels: list[str]) -> list[str]:
    if call.code != 0:
        return [f"train exited {call.code}"]
    records = call.json_lines()
    epochs = [r for r in records if "epoch" in r]
    problems = []
    if len(epochs) != wl.epochs:
        problems.append(f"train printed {len(epochs)} epoch lines, expected {wl.epochs}")
    for r in epochs:
        if not math.isfinite(r["train_loss"]):
            problems.append(f"epoch {r['epoch']} loss {r['train_loss']} is not finite")
        if not (_finite_unit(r["train_acc"]) and _finite_unit(r["val_acc"])):
            problems.append(f"epoch {r['epoch']} accuracies out of [0,1]: {r}")
    if not records or records[-1].get("checkpoint") != str(checkpoint):
        problems.append("train did not report its checkpoint")
        return problems
    model, history, means, names = fsqnet.checkpoint.load_checkpoint(checkpoint)
    if model.config != wl.model_config() or names != labels:
        problems.append(f"reloaded checkpoint has config {model.config} and labels {names}")
    if len(history.entries) != wl.epochs:
        problems.append(f"reloaded checkpoint has {len(history.entries)} history entries")
    if not all(_finite_unit(m) for m in means):
        problems.append(f"reloaded channel means {means} out of [0,1]")
    return problems


def check_eval_call(call: CliCall, images: int) -> list[str]:
    if call.code != 0:
        return [f"eval exited {call.code}"]
    records = call.json_lines()
    if len(records) != 1:
        return [f"eval printed {len(records)} lines"]
    problems = []
    if records[0].get("n") != images:
        problems.append(f"eval n {records[0].get('n')} != {images} images")
    if not _finite_unit(records[0].get("accuracy")):
        problems.append(f"eval accuracy {records[0].get('accuracy')} out of [0,1]")
    return problems


def check_predict_call(call: CliCall, labels: list[str], reference: tuple[str, float]) -> list[str]:
    if call.code != 0:
        return [f"predict exited {call.code}"]
    records = call.json_lines()
    rows = records[0] if len(records) == 1 else []
    if sorted(r["label"] for r in rows) != sorted(labels):
        return [f"predict printed labels {[r['label'] for r in rows]}, expected all of {labels}"]
    problems = []
    ps = [r["p"] for r in rows]
    if not all(_finite_unit(p) for p in ps):
        problems.append(f"predict probabilities {ps} not finite in [0,1]")
    elif abs(sum(ps) - 1.0) > ROW_SUM_TOLERANCE:
        problems.append(f"predict probabilities sum to {sum(ps)}")
    label, p = reference
    if rows[0]["label"] != label or abs(rows[0]["p"] - p) > P_TOLERANCE:
        problems.append(f"predict top {rows[0]} != direct model_forward ({label}, {p})")
    return problems


def reference_predictions(checkpoint: Path, images: list[Path]) -> dict[Path, tuple[str, float]]:
    """Top label and p of a direct model_forward on predict's preprocessing of each image."""
    model, _, means, names = fsqnet.checkpoint.load_checkpoint(checkpoint)
    size = model.config.input_size
    refs = {}
    for path in images:
        image = fsqnet.data.resize_bilinear(fsqnet.data.load_image(path), size, size)
        probs = fsqnet.model.model_forward(model, fsqnet.data.normalize(image, means)[None])[0]
        row_sum = float(probs.sum(dtype=np.float64))
        if not np.isfinite(probs).all() or abs(row_sum - 1.0) > ROW_SUM_TOLERANCE:
            raise ValueError(f"direct forward on {path} gave probabilities {probs}")
        top = int(np.argsort(-probs, kind="stable")[0])
        refs[path] = (names[top], float(probs[top]))
    return refs


def tail(samples: list[float]) -> dict | None:
    """Value at the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return {"value": sorted(samples)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def _setup_train(wl: Workload, data: Path, seed: int):
    dataset = fsqnet.data.load_dataset(data)
    resized = fsqnet.data.resize_dataset(dataset, wl.image_size)
    train_set, val_set = fsqnet.data.shuffle_split(resized, seed, VAL_FRACTION)
    fsqnet.model.build_model(wl.model_config(), seed)
    return dataset.label_names, len(train_set), len(val_set)


def _setup_infer(wl: Workload, data: Path, checkpoint: Path):
    fsqnet.checkpoint.load_checkpoint(checkpoint)
    dataset = fsqnet.data.load_dataset(data)
    fsqnet.data.resize_dataset(dataset, wl.image_size)
    return dataset.label_names, len(dataset), 0


def _write_checkpoint(wl: Workload, data: Path, checkpoint: Path, seed: int) -> None:
    dataset = fsqnet.data.resize_dataset(fsqnet.data.load_dataset(data), wl.image_size)
    model = fsqnet.model.build_model(wl.model_config(), seed)
    fsqnet.checkpoint.save_checkpoint(
        model, History(), dataset.channel_means, dataset.label_names, checkpoint)


def _predict_argv(wl: Workload, checkpoint: Path, image: Path) -> list[str]:
    # --top covers every class so the check sees the whole probability row
    return ["predict", "--checkpoint", str(checkpoint), "--image", str(image),
            "--top", str(wl.classes)]


def _guarded(ledger: Ledger, ops: int, fn, *args):
    """Run one operation; an exception is a failure of its `ops` operations."""
    try:
        return fn(*args)
    except Exception:  # the run goes on and reports the failure
        ledger.record(ops, [traceback.format_exc(limit=3)])
        return None


def run(wl: Workload, seed: int, seconds: float, workdir: Path, tracer) -> dict:
    """Generate inputs, set up, run the timed loop, check outputs. Returns the run record."""
    ledger = Ledger()
    data = workdir / "data"
    checkpoint = workdir / "model.fsq"
    started = time.perf_counter()
    fsqnet.synthetic.write_dataset(data, wl.classes, wl.per_class, wl.source_size, seed)
    pool = [sorted(d.iterdir())[0] for d in sorted(data.iterdir())]  # one image per class
    generate_s = time.perf_counter() - started
    # predicts before the first train call use a freshly built model of the same shape
    initial = workdir / "initial.fsq" if wl.trains else checkpoint
    tracer.operation("write_checkpoint", _write_checkpoint, wl, data, initial, seed)

    probe = HostProbe()
    probe.measure()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if wl.trains:
            setup = tracer.operation("setup", _setup_train, wl, data, seed)
        else:
            setup = tracer.operation("setup", _setup_infer, wl, data, checkpoint)
        labels, main_images, val_images = setup
        setups.append((t0, time.perf_counter()))
        probe.measure()

    if wl.trains:
        argv = ["train", "--data", str(data), "--out", str(checkpoint), "--arch", wl.arch,
                "--image-size", str(wl.image_size), "--batch", str(wl.batch),
                "--epochs", str(wl.epochs), "--seed", str(seed),
                "--val-fraction", str(VAL_FRACTION)]
        kind, ops = "train", math.ceil(main_images / wl.batch) * wl.epochs
    else:
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data)]
        kind, ops = "eval", main_images

    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    main_calls: list[CliCall] = []
    predicts: list[tuple[CliCall, Path, Path]] = []

    def predict(model: Path = checkpoint) -> CliCall | None:
        image = pool[len(predicts) % len(pool)]
        argv_p = _predict_argv(wl, model, image)
        probe.measure_if_due()
        call = _guarded(ledger, 1, tracer.operation, "predict", run_cli, argv_p)
        if call is not None:
            predicts.append((call, model, image))
        return call

    # half the minimum before the main job, so a long main call has predicts on both sides
    while len(predicts) < wl.min_predicts // 2:
        if predict(initial) is None:
            break
    while len(main_calls) < MIN_MAIN_CALLS or (
            time.perf_counter() + main_calls[-1].seconds <= deadline):
        probe.measure()
        call = _guarded(ledger, ops, tracer.operation, kind, run_cli, argv)
        probe.measure()
        if call is None:
            break
        main_calls.append(call)
        with tracer.suspended():
            if wl.trains:
                problems = _guarded(ledger, ops, check_train_call, wl, call, checkpoint, labels)
            else:
                problems = check_eval_call(call, main_images)
        if problems is not None:
            ledger.record(ops, problems)
        # interleaved predict calls sample the whole window, not only its end
        while time.perf_counter() < deadline and sum(c.seconds for c, _, _ in predicts) < (
            PREDICT_SHARE * (time.perf_counter() - loop_start)
        ):
            if predict() is None:
                break
    while len(predicts) < wl.min_predicts or time.perf_counter() < deadline:
        if predict() is None:
            break
    probe.measure()
    loop_s = time.perf_counter() - loop_start

    with tracer.suspended():
        refs = {}
        for model in {model for _, model, _ in predicts}:
            found = _guarded(ledger, 0, reference_predictions, model, pool) or {}
            refs |= {(model, image): ref for image, ref in found.items()}
        for call, model, image in predicts:
            if (model, image) in refs:
                ledger.record(1, check_predict_call(call, labels, refs[model, image]))
            else:
                ledger.record(1, [f"no direct-forward reference for {image} on {model.name}"])

    predict_calls = [c for c, _, _ in predicts]
    return summarize(wl, main_calls, predict_calls, setups, main_images, ledger, probe) | {
        "generate_s": generate_s,
        "loop_s": loop_s,
        "checkpoint_bytes": checkpoint.stat().st_size if checkpoint.exists() else 0,
        "val_images": val_images,
        "main_argv": argv,
        "predict_argvs": [_predict_argv(wl, checkpoint, image) for image in pool],
        # seconds from the start of the timed loop, for checking the host-speed scaling
        "timeline": {
            "probes": [[t - loop_start, p] for t, p in zip(probe.ends, probe.seconds)],
            "setups": [[a - loop_start, b - loop_start] for a, b in setups],
            "main_calls": [[c.start - loop_start, c.end - loop_start,
                            [t - loop_start for t, _ in c.lines]] for c in main_calls],
            "predicts": [[c.start - loop_start, c.end - loop_start] for c in predict_calls],
        },
    }


def untraced_unit_seconds(wl: Workload, record: dict) -> tuple[list[float], list[float]]:
    """Seconds of the unit trace_overhead compares, traced (from record) and run again untraced.

    The unit is one `fsqnet train` call for training workloads and a pass of
    predict calls over the image pool for inference, where one eval call
    carries too few spans to show the tracer's per-call cost.
    """
    if wl.trains:
        return record["main_call_seconds"], [run_cli(record["main_argv"]).seconds]
    argvs = record["predict_argvs"] * 2
    return record["predict_call_seconds"], [run_cli(argv).seconds for argv in argvs]


def summarize(wl, main_calls, predict_calls, setups, main_images, ledger, probe) -> dict:
    """End-to-end figures of one run; None where the run produced no sample.

    Timings are medians of samples each scaled to reference host speed by
    the probes taken around it (hostspeed.py); the raw medians are in the
    detail.
    """
    setup_raw = [b - a for a, b in setups]
    setup_scaled = [(b - a) * probe.scale(a, b) for a, b in setups]
    detail: dict = {"setup_reps_s": setup_raw, "setup_reps_scaled_s": setup_scaled}
    if wl.trains:
        rates, cli_setup, saves = [], [], []  # rates: (raw, scaled) images/s per epoch
        for call in main_calls:
            stamps = [(t, json.loads(text)) for t, text in call.lines]
            header = [t for t, r in stamps if "config" in r]
            ends = [t for t, r in stamps if "epoch" in r]
            if not header or len(ends) != wl.epochs:
                continue
            cli_setup.append(header[0] - call.start)
            marks = header[:1] + ends
            scale = probe.scale(call.start, call.end)
            rates += [(main_images / (b - a), main_images / (b - a) / scale)
                      for a, b in zip(marks, marks[1:])]
            saves.append(call.end - ends[-1])
        detail |= {"epoch_images_per_s": [raw for raw, _ in rates],
                   "cli_setup_s": cli_setup, "save_and_exit_s": saves}
    else:
        rates = [(main_images / c.seconds, main_images / c.seconds / probe.scale(c.start, c.end))
                 for c in main_calls if c.code == 0]
        detail |= {"eval_calls_s": [c.seconds for c in main_calls]}
    latencies = [c.seconds * 1e3 for c in predict_calls]
    scaled_latencies = [c.seconds * 1e3 * probe.scale(c.start, c.end) for c in predict_calls]

    def median(values):
        return statistics.median(values) if values else None

    detail |= {"raw": {"images_per_s": median([raw for raw, _ in rates]),
                       "predict_p50_ms": median(latencies), "setup_s": median(setup_raw)},
               "predict_tail_ms": tail(latencies),
               "predict_samples": len(latencies), "main_calls": len(main_calls),
               "probe_s": {"count": len(probe.seconds), "median": median(probe.seconds),
                           "min": min(probe.seconds), "max": max(probe.seconds)},
               "error_rate": ledger.failed / ledger.attempted if ledger.attempted else None}
    return {
        "metrics": {
            "images_per_s": median([scaled for _, scaled in rates]),
            "predict_p50_ms": median(scaled_latencies),
            "setup_s": median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "detail": detail,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "messages": ledger.messages,
        "main_call_seconds": [c.seconds for c in main_calls],
        "predict_call_seconds": [c.seconds for c in predict_calls],
    }

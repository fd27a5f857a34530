"""Command-line interface: train, eval, predict, inspect.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit codes are
a stable contract for scripting: 0 success, 2 bad flags, 3 data or
compatibility errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import math
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    load_dataset,
    load_image,
    normalize,
    resize_bilinear,
    resize_dataset,
    shuffle_split,
)
from .errors import CompatibilityError, ConfigError, FsqError
from .model import (
    MIN_INPUT_SIZE,
    Model,
    ModelConfig,
    build_model,
    layer_summary,
    model_forward,
    tiny_config,
)
from .ops import openblas_function
from .train import History, TrainConfig, evaluate, fit

ARCHES = ("v11", "tiny")

# glibc's mallopt parameters, and a threshold above the largest single array
# of a v1.1@244 batch-32 training step (about 240 MB)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_THRESHOLD = 1 << 30


def keep_heap() -> bool:
    """Have glibc keep freed memory in the heap; True if it applied.

    By default glibc maps each large array on its own and unmaps it when
    freed, and trims the heap top, so every training step faults and zeroes
    the previous step's activations again.  A fixed 1 GiB mmap threshold
    puts those arrays in the heap and a 1 GiB trim threshold keeps their pages.
    The mmap threshold goes first: a trim threshold alone also switches off
    glibc's dynamic mmap threshold, which is slower still.  One arena keeps
    the ops' worker threads in the same heap, so each thread reuses what the
    others freed; with an arena per thread, each kept a high-water mark of
    its own.  Nothing is set without glibc's mallopt, or when the mmap
    threshold is refused, or when the environment already sets a glibc
    malloc option.
    """
    if any(name.startswith("MALLOC_") for name in os.environ) or (
        "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD) != 1:
        return False
    return mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD) == 1 and mallopt(_M_ARENA_MAX, 1) == 1


_keep_heap_once = functools.cache(keep_heap)

# environment variables that set OpenBLAS's thread count
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def single_blas_thread() -> bool:
    """Hold OpenBLAS to one thread for the rest of the process; True if it applied.

    fsqnet's ops then split each batch across the CPUs in threads of their own.
    Two OpenBLAS threads would not combine with that: after each threaded
    product the idle OpenBLAS worker spins on a core for a while, and a later
    switch back to one thread does not stop it.  Nothing is set without
    OpenBLAS, or when the environment already sets a thread count.
    """
    if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return False
    set_threads = openblas_function("set_num_threads", None, ctypes.c_int)
    if set_threads is None:
        return False
    set_threads(1)
    return True


_single_blas_thread_once = functools.cache(single_blas_thread)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0,1), got {value}")
    return value


def _momentum(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0,1), got {value}")
    return value


def _image_size(text: str) -> int:
    value = int(text)
    if value < MIN_INPUT_SIZE:
        raise argparse.ArgumentTypeError(f"must be >= {MIN_INPUT_SIZE}, got {value}")
    return value


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsqnet",
        description="From-scratch SqueezeNet trainer for sign-language alphabet images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a directory dataset")
    p_train.add_argument("--data", required=True, help="dataset root: <root>/<class>/<images>")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--epochs", type=_positive_int, default=10)
    p_train.add_argument("--lr", type=_nonneg_float, default=0.001)
    p_train.add_argument("--momentum", type=_momentum, default=0.9)
    p_train.add_argument("--batch", type=_positive_int, default=32)
    p_train.add_argument("--val-fraction", type=_fraction, default=0.1)
    p_train.add_argument("--image-size", type=_image_size, default=244)
    p_train.add_argument("--seed", type=int, default=42)
    p_train.add_argument("--augment", action=argparse.BooleanOptionalAction, default=True)
    p_train.add_argument("--flip", action=argparse.BooleanOptionalAction, default=False,
                         help="allow horizontal flips (off: fingerspelling is chirality-sensitive)")
    p_train.add_argument("--dropout", action=argparse.BooleanOptionalAction, default=False)
    p_train.add_argument("--deterministic", action="store_true",
                         help="zeroed wall times, byte-reproducible outputs")
    p_train.add_argument("--arch", choices=ARCHES, default="v11")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.add_argument("--metrics", default=None,
                         help="metrics JSON-lines path (default: <out>.metrics.jsonl)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a directory dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--confusion", default=None, help="write confusion matrix CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="classify a single image")
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--image", required=True)
    p_predict.add_argument("--top", type=_positive_int, default=3)
    p_predict.set_defaults(func=cmd_predict)

    p_inspect = sub.add_parser("inspect", help="print the layer table and parameter count")
    p_inspect.add_argument("--checkpoint", default=None)
    p_inspect.add_argument("--arch-only", action="store_true",
                           help="describe the architecture from flags without a checkpoint")
    p_inspect.add_argument("--arch", choices=ARCHES, default="v11")
    p_inspect.add_argument("--image-size", type=_image_size, default=244)
    p_inspect.add_argument("--classes", type=_positive_int, default=24)
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def _model_config(arch: str, num_classes: int, image_size: int) -> ModelConfig:
    if arch == "tiny":
        return tiny_config(num_classes=num_classes, input_size=image_size)
    return ModelConfig(num_classes=num_classes, input_size=image_size)


def cmd_train(args) -> int:
    _single_blas_thread_once()
    # the resized set is left unbound, so only the two splits live through fit
    train_set, val_set = shuffle_split(resize_dataset(load_dataset(args.data), args.image_size),
                                       args.seed, args.val_fraction)
    label_names = train_set.label_names
    config = _model_config(args.arch, len(label_names), args.image_size)

    history = History()
    if args.resume is not None:
        model, history, _, resumed_labels = load_checkpoint(args.resume)
        if model.config != config:
            raise CompatibilityError(
                f"resume config {model.config.to_dict()} does not match flags {config.to_dict()}"
            )
        if resumed_labels != label_names:
            raise CompatibilityError(
                f"resume labels {resumed_labels} do not match dataset {label_names}"
            )
    else:
        model = build_model(config, args.seed)

    train_cfg = TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        dropout_on=args.dropout,
        augment=args.augment,
        flip=args.flip,
        deterministic=args.deterministic,
    )
    header = {k: v for k, v in vars(args).items() if k not in ("command", "func", "metrics")}
    metrics_path = args.metrics if args.metrics is not None else f"{args.out}.metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as metrics_file:
        header_line = json.dumps({"config": header}, sort_keys=True, separators=(",", ":"))
        metrics_file.write(header_line + "\n")
        print(header_line)

        def emit(line: str) -> None:
            metrics_file.write(line + "\n")
            metrics_file.flush()
            print(line)

        result = fit(model, train_set, val_set, train_cfg, history=history, emit=emit)

    best = Model(config, result.best_params)
    save_checkpoint(best, result.history, train_set.channel_means, label_names, args.out)
    entry = result.history.best()
    _emit({"best_epoch": entry.epoch, "best_val_acc": entry.val_acc, "checkpoint": args.out})
    return 0


def cmd_eval(args) -> int:
    _single_blas_thread_once()
    model, _, means, label_names = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    if dataset.label_names != label_names:
        missing = sorted(set(label_names) - set(dataset.label_names))
        extra = sorted(set(dataset.label_names) - set(label_names))
        raise CompatibilityError(
            f"label map mismatch: checkpoint-only classes {missing}, dataset-only {extra}, "
            f"checkpoint order {label_names}, dataset order {dataset.label_names}"
        )
    dataset = resize_dataset(dataset, model.config.input_size)
    # evaluate with the training-time normalization stored in the checkpoint
    eval_set = Dataset(dataset.samples, dataset.labels, list(label_names), means)
    accuracy, confusion = evaluate(model, eval_set)
    _emit({"accuracy": accuracy, "n": len(eval_set)})
    if args.confusion is not None:
        with open(args.confusion, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # quotes only names that need it
            writer.writerow(["", *label_names])
            writer.writerows([name, *map(int, row)] for name, row in zip(label_names, confusion))
    return 0


def cmd_predict(args) -> int:
    model, _, means, label_names = load_checkpoint(args.checkpoint)
    image = load_image(args.image)
    size = model.config.input_size
    tensor = normalize(resize_bilinear(image, size, size), means)
    probs = model_forward(model, tensor[None, ...], training=False)[0]
    top = min(args.top, len(label_names))
    ranked = np.argsort(-probs, kind="stable")[:top]
    _emit([{"label": label_names[i], "p": float(probs[i])} for i in ranked])
    return 0


def cmd_inspect(args) -> int:
    if (args.checkpoint is None) == (not args.arch_only):
        raise ConfigError("inspect needs exactly one of --checkpoint or --arch-only")
    if args.checkpoint is not None:
        config = load_checkpoint(args.checkpoint)[0].config
    else:
        config = _model_config(args.arch, args.classes, args.image_size)
    rows = layer_summary(config)
    total = sum(r["params"] for r in rows)
    _emit({"variant": config.variant, "layers": rows, "total_params": total})
    return 0


def main(argv=None) -> int:
    _keep_heap_once()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())

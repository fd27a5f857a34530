"""Command-line interface: train, eval, predict, inspect.

A call builds the flags of only the command it names; each flag costs argparse
a HelpFormatter.  Machine-readable JSON goes to stdout, diagnostics to stderr.
Exit codes are a stable contract for scripting: 0 success, 2 bad flags, 3 data
or compatibility errors, 4 I/O errors.
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

    fsqnet then splits its work across the CPUs in threads of its own: each
    op its batch, or, from data.WARP_PIXELS pixels per image, each step or
    evaluation pass its images, one at a time on each CPU.  Two OpenBLAS
    threads would not combine with that: after each threaded product the idle
    OpenBLAS worker spins on a core for a while, and a later switch back to
    one thread does not stop it.  Nothing is set without OpenBLAS, or when the
    environment already sets a thread count.
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
    header = {k: v for k, v in vars(args).items() if k not in ("command", "metrics")}
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


def _train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset root: <root>/<class>/<images>")
    parser.add_argument("--out", required=True, help="checkpoint output path")
    parser.add_argument("--epochs", type=_positive_int, default=10)
    parser.add_argument("--lr", type=_nonneg_float, default=0.001)
    parser.add_argument("--momentum", type=_momentum, default=0.9)
    parser.add_argument("--batch", type=_positive_int, default=32)
    parser.add_argument("--val-fraction", type=_fraction, default=0.1)
    parser.add_argument("--image-size", type=_image_size, default=244)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--augment", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--flip", action=argparse.BooleanOptionalAction, default=False,
                        help="allow horizontal flips (off: fingerspelling is chirality-sensitive)")
    parser.add_argument("--dropout", action=argparse.BooleanOptionalAction, default=False)
    parser.add_argument("--deterministic", action="store_true",
                        help="zeroed wall times, byte-reproducible outputs")
    parser.add_argument("--arch", choices=ARCHES, default="v11")
    parser.add_argument("--resume", default=None, help="checkpoint to continue from")
    parser.add_argument("--metrics", default=None,
                        help="metrics JSON-lines path (default: <out>.metrics.jsonl)")


def _eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--confusion", default=None, help="write confusion matrix CSV here")


def _predict_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--image", required=True)
    parser.add_argument("--top", type=_positive_int, default=3)


def _inspect_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", default=None)
    parser.add_argument("--arch-only", action="store_true",
                        help="describe the architecture from flags without a checkpoint")
    parser.add_argument("--arch", choices=ARCHES, default="v11")
    parser.add_argument("--image-size", type=_image_size, default=244)
    parser.add_argument("--classes", type=_positive_int, default=24)


# each command's help line, the function that adds its flags, and its handler
COMMANDS = {
    "train": ("train a model on a directory dataset", _train_flags, cmd_train),
    "eval": ("evaluate a checkpoint on a directory dataset", _eval_flags, cmd_eval),
    "predict": ("classify a single image", _predict_flags, cmd_predict),
    "inspect": ("print the layer table and parameter count", _inspect_flags, cmd_inspect),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """fsqnet's parser, with the flags and -h of the command named, or of every one."""
    description = "From-scratch SqueezeNet trainer for sign-language alphabet images."
    parser = argparse.ArgumentParser(prog="fsqnet", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, _) in COMMANDS.items():
        built = command not in COMMANDS or name == command
        p_command = sub.add_parser(name, help=help_line, add_help=built)
        if built:
            add_flags(p_command)
    return parser


def main(argv=None) -> int:
    _keep_heap_once()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command][2](args)
    except (FsqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, FsqError) else 4


def entry() -> None:
    sys.exit(main())

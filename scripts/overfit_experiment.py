"""Overfit the tiny architecture on a small synthetic dataset.

This is the quickest full-pipeline sanity run: data generation, split,
training with momentum SGD, and per-epoch metrics as JSON lines on stdout.
With the defaults it reaches 100% train accuracy in around ten epochs and
a couple of seconds.  The fsqnet package is imported from the checkout this
script belongs to.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fsqnet.data import shuffle_split  # noqa: E402
from fsqnet.model import build_model, tiny_config  # noqa: E402
from fsqnet.synthetic import make_dataset  # noqa: E402
from fsqnet.train import TrainConfig, fit  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--per-class", type=int, default=10)
    parser.add_argument("--size", type=int, default=32, help="square image size")
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--momentum", type=float, default=0.9)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--val-fraction", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args(argv)

    dataset = make_dataset(args.classes, args.per_class, args.size, args.seed)
    train_set, val_set = shuffle_split(dataset, args.seed, args.val_fraction)
    model = build_model(
        tiny_config(num_classes=args.classes, input_size=args.size), args.seed
    )
    config = TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        deterministic=True,
    )
    result = fit(model, train_set, val_set, config, emit=print)
    best = max(entry.train_acc for entry in result.history.entries)
    best_entry = result.history.best()
    print(f"best train accuracy {best:.3f}, best val accuracy "
          f"{best_entry.val_acc:.3f} at epoch {best_entry.epoch}")
    return 0 if best >= 0.95 else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Write a synthetic color/shape dataset as a class-per-directory PPM tree.

Handy for smoke tests and for exercising the train/eval/predict commands
without downloading anything. The fsqnet package is imported from the
checkout this script belongs to.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fsqnet.errors import ConfigError  # noqa: E402
from fsqnet.synthetic import write_dataset  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--classes", type=int, default=4, help="number of classes")
    parser.add_argument("--per-class", type=int, default=10, help="images per class")
    parser.add_argument("--size", type=int, default=64, help="square image size in pixels")
    parser.add_argument("--seed", type=int, default=21, help="generator seed")
    args = parser.parse_args(argv)

    try:
        root = write_dataset(
            args.out,
            num_classes=args.classes,
            per_class=args.per_class,
            size=args.size,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = args.classes * args.per_class
    print(f"wrote {total} images ({args.classes} classes x {args.per_class}) under {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

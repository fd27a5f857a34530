"""Byte-identity gate: deterministic artifacts and their SHA-256 hashes.

Writes a small synthetic dataset plus one undecodable `data/b/bad.ppm`,
which every train and eval skips with a warning.  Before its first fsqnet
command, while OpenBLAS keeps its starting thread count, it hashes two
set-up results of the library, which split across the CPUs at any thread
count: the parameters of `build_model(ModelConfig(), 42)`, in build order,
and the samples of `resize_dataset(load_dataset("data"), 244)`.  Then it
runs five `--deterministic` trainings: tiny@32 for 3 epochs, v1.1@64 for 1
epoch, two at 182 px and batch 3, large enough that each image trains and
evaluates alone on its own CPU: tiny@182 for 2 epochs and v1.1@182, whose
backward runs through all three pools, for 1 epoch, and v1.1 at the paper's
244 px, batch 2, for 1 epoch.
Then it runs three more tiny@32 ones that cover the other augmentation
settings and a resume: `--flip`, `--no-augment` and `--resume tiny.ckpt`.
On the first five checkpoints it runs `inspect --checkpoint`,
`eval --confusion` and `predict --top 3` on one image, plus two `inspect
--arch-only` calls.  Last, it runs `predict` with
the v1.1 checkpoint on a non-square 300x97 image, whose resize to 64 px
downscales one axis past 4x.  It prints two `#` lines that name the numpy
version and the configuration of the OpenBLAS numpy loaded, core included,
since the float32 kernels may round differently on another build.  Then it
prints one `sha256  name` line per set-up result, checkpoint, metrics file,
command output and confusion CSV: 41 lines.  Every path is relative to
WORKDIR, so the metrics headers, and with them the hashes, are comparable
between two checkouts.  The fsqnet package is imported from the checkout this script
belongs to:

    python3 scripts/determinism_gate.py /tmp/gate-new > new.txt
    python3 /path/to/other/checkout/scripts/determinism_gate.py /tmp/gate-old > old.txt
    diff old.txt new.txt

A refactor that should not change behaviour must leave every line equal.
`tests/determinism_gate.sha256` holds this script's output, and a tier-1 test
compares every line with it.  A change that alters output on purpose
rewrites that file and lists its changed lines, with their new hashes, in
CHANGES.md:

    python3 scripts/determinism_gate.py /tmp/gate > tests/determinism_gate.sha256
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fsqnet.cli import main as fsqnet_main  # noqa: E402
from fsqnet.data import ImageBuffer, load_dataset, resize_dataset, save_ppm  # noqa: E402
from fsqnet.model import ModelConfig, build_model  # noqa: E402
from fsqnet.ops import openblas_function  # noqa: E402
from fsqnet.synthetic import write_dataset  # noqa: E402

COMMON = ["--deterministic", "--dropout", "--seed", "42", "--val-fraction", "0.25"]
TRAINS = {
    "tiny": ["--arch", "tiny", "--image-size", "32", "--epochs", "3", "--batch", "4",
             "--lr", "0.05"],
    "v11": ["--arch", "v11", "--image-size", "64", "--epochs", "1", "--batch", "8",
            "--lr", "0.01"],
    "tiny182": ["--arch", "tiny", "--image-size", "182", "--epochs", "2", "--batch", "3",
                "--lr", "0.05"],
    "v11-182": ["--arch", "v11", "--image-size", "182", "--epochs", "1", "--batch", "3",
                "--lr", "0.01"],
    "v11-244": ["--arch", "v11", "--image-size", "244", "--epochs", "1", "--batch", "2",
                "--lr", "0.01"],
}
# tiny trainings that differ from TRAINS["tiny"] in one flag
TINY_VARIANTS = {
    "tiny-flip": ["--flip"],
    "tiny-noaug": ["--no-augment"],
    "tiny-resumed": ["--resume", "tiny.ckpt"],
}


def blas_config() -> str:
    """The runtime configuration of the BLAS numpy loaded, or "unknown".

    Read from the library itself: np.show_config names the build target, not
    the core OpenBLAS picked at load time.
    """
    get_config = openblas_function("get_config", ctypes.c_char_p)
    return "unknown" if get_config is None else get_config().decode()


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def _run(argv: list[str], stdout_path: str | None = None) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fsqnet_main(argv)
    if code != 0:
        raise SystemExit(f"fsqnet {' '.join(argv)} exited {code}")
    if stdout_path is not None:
        Path(stdout_path).write_text(out.getvalue(), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workdir", help="directory for the dataset and artifacts (created)")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    write_dataset("data", num_classes=3, per_class=6, size=40, seed=3)
    Path("data/b/bad.ppm").write_bytes(b"P6\n9 9\n255\nshort")  # skipped with a warning
    setup = {
        "build_model-v11-seed42": _sha256(build_model(ModelConfig(), 42).params.values()),
        "resize_dataset-244": _sha256([resize_dataset(load_dataset("data"), 244).samples]),
    }
    artifacts = []
    for name, flags in TRAINS.items():
        _run(["train", "--data", "data", "--out", f"{name}.ckpt", *flags, *COMMON])
        artifacts += [f"{name}.ckpt", f"{name}.ckpt.metrics.jsonl"]
    for name, extra in TINY_VARIANTS.items():
        _run(["train", "--data", "data", "--out", f"{name}.ckpt", *TRAINS["tiny"], *COMMON,
              *extra])
        artifacts += [f"{name}.ckpt", f"{name}.ckpt.metrics.jsonl"]
    for name in TRAINS:
        ckpt = ["--checkpoint", f"{name}.ckpt"]
        _run(["inspect", *ckpt], f"inspect-{name}-ckpt.json")
        _run(["eval", *ckpt, "--data", "data", "--confusion", f"eval-{name}.csv"],
             f"eval-{name}.json")
        _run(["predict", *ckpt, "--image", "data/a/000.ppm", "--top", "3"],
             f"predict-{name}.json")
        artifacts += [f"inspect-{name}-ckpt.json", f"eval-{name}.json", f"eval-{name}.csv",
                      f"predict-{name}.json"]
    for arch in ("v11", "tiny"):
        _run(["inspect", "--arch-only", "--arch", arch], f"inspect-{arch}.json")
        artifacts.append(f"inspect-{arch}.json")
    y, x = np.mgrid[0:97, 0:300]
    save_ppm(ImageBuffer(np.stack([7 * x + 3 * y, x * y, 5 * (x ^ y)], axis=-1) % 256),
             "wide.ppm")
    _run(["predict", "--checkpoint", "v11.ckpt", "--image", "wide.ppm", "--top", "3"],
         "predict-v11-wide.json")
    artifacts.append("predict-v11-wide.json")
    print(f"# numpy {np.__version__}")
    print(f"# blas {blas_config()}")
    for name, digest in setup.items():
        print(f"{digest}  {name}")
    for name in artifacts:
        print(f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""fsqnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-v11-244 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare perfbench/baseline OTHER_RESULTS_DIR

Run from the root of a source checkout; fsqnet is imported from its ``src``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The full record (environment, per-call
timings, computed counts, trace attribution) goes to
``perfbench/out/<workload>/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def _import_fsqnet() -> None:
    """Put the checkout's src first on the path; refuse to run on any other fsqnet."""
    if not (SRC / "fsqnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsqnet sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fsqnet

    if Path(fsqnet.__file__).resolve().parent != SRC / "fsqnet":
        raise SystemExit(f"error: imported fsqnet from {fsqnet.__file__}, not {SRC}")


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info |= {"name": deps.get("name"), "version": deps.get("version")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                info["library"] = os.path.basename(lib_path)
                return info
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def _result_line(record: dict, specs: list[dict], values: dict) -> dict:
    metrics, missing = {}, []
    for spec in specs:
        value = values.get(spec["name"])
        if value is None:
            missing.append(spec["name"])
        else:
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if missing:
        record["messages"].append(f"not measured in this run: {missing}")
    # a run that attempted nothing reports one failed attempt: the format needs attempted >= 1
    return {
        "correct": record["failed"] == 0 and not missing and not record["messages"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"] if record["attempted"] else 1,
        "metrics": metrics,
    }


def run_once(wl, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One run of workload wl; writes the full record and returns the final result line."""
    import counts
    import fsqnet.model
    import fsqnet.train
    import tracer as tracing
    import workloads

    spec = _spec()
    run_dir = out_dir / wl.name
    run_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = run_dir / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                record = workloads.run(wl, seed, seconds, workdir, tracer)
            traced, untraced = workloads.untraced_unit_seconds(wl, record)
            steps = fsqnet.model.layer_plan(wl.model_config())
            analysis = tracing.layer_metrics(
                tracer.spans, steps, ("train",) if wl.trains else ("eval", "predict"))
            values = analysis["metrics"]
            values["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
            values["checkpoint.bytes"] = record["checkpoint_bytes"] or None
            record["trace"] = {"unit_seconds": {"traced": traced, "untraced": untraced},
                               "attribution": analysis["attribution"], "metrics": values,
                               "spans": f"{stem}.spans.jsonl.gz", "span_count": len(tracer.spans)}
            tracer.write_jsonl(run_dir / f"{stem}.spans.jsonl.gz")
        else:
            record = workloads.run(wl, seed, seconds, workdir, tracing.NullTracer())
            values = record["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    batch = wl.batch or min(fsqnet.train.EVAL_BATCH, wl.classes * wl.per_class)
    computed = counts.conv_counts(wl.model_config(), batch)
    if trace:
        for kind, row in computed.items():
            for key in ("macs_per_image", "im2col_bytes_per_image", "acc_bytes_per_image"):
                values[f"ops.conv.{kind}.{key}"] = row[key]
        observed = {k: values.get(f"trace.conv_fwd.{k}.macs_per_image") for k in computed}
        record["trace"]["computed_macs_match_trace"] = all(
            observed[k] == computed[k]["macs_per_image"] for k in computed)
    for key in ("main_argv", "predict_argvs"):  # paths of the removed work directory
        record.pop(key)
    line = _result_line(record, spec["per_layer" if trace else "end_to_end"], values)
    record |= {"workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
               "trace": record.get("trace"), "computed_counts": {"batch": batch, "conv": computed},
               "environment": environment(), "result": line}
    path = run_dir / f"{stem}.json"
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"record: {path}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for result records")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two directories of result records and exit")
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    if args.compare:
        import compare

        print(compare.report(*args.compare, _spec()))
        return 0
    _import_fsqnet()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    wl = workloads.WORKLOADS[args.workload]
    line = run_once(wl, args.seed, seconds, bool(args.trace), args.out)
    print(json.dumps(line, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import fsqnet.data  # noqa: E402
import fsqnet.model  # noqa: E402
import compare  # noqa: E402
import counts  # noqa: E402
import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str) -> workloads.Workload:
    """The workload at 32 px with a handful of images, for smoke runs."""
    wl = workloads.WORKLOADS[name]
    return replace(wl, image_size=32, source_size=40, per_class=3 if wl.trains else 2,
                   epochs=min(wl.epochs, 2), min_predicts=2)


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name, tmp_path):
    wl = small(name)
    line = bench_run.run_once(wl, seed=3, seconds=0.1, trace=False, out_dir=tmp_path)
    assert line["correct"], line
    assert line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert not list((tmp_path / wl.name).glob("work-*")), "work directory left behind"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_per_layer_metric(name, tmp_path):
    wl = small(name)
    line = bench_run.run_once(wl, seed=3, seconds=0.1, trace=True, out_dir=tmp_path)
    assert line["correct"], line
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    record = json.loads(next((tmp_path / wl.name).glob("*.json")).read_text())
    trace = record["trace"]
    assert trace["computed_macs_match_trace"]
    assert trace["metrics"]["trace.layer_order_mismatches"] == 0
    assert abs(trace["attribution"]["sum_check_s"]) < 1e-9
    assert all(NAME.fullmatch(k) for k in trace["metrics"])


def test_tracer_wrappers_are_removed_after_the_traced_run(tmp_path):
    originals = [(m, a, getattr(m, a)) for m, a, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert fsqnet.model.conv2d_forward is not originals[0][2]
            workloads.run(small("train-tiny-32"), 3, 0.1, tmp_path, tracer)
            raise RuntimeError("traced code failed")
    assert all(getattr(m, a) is original for m, a, original in originals)
    assert tracer.spans


def test_seed_changes_inputs_but_not_shapes(tmp_path):
    wl = workloads.WORKLOADS["train-tiny-32"]
    trees = {}
    for seed in (1, 2):
        root = fsqnet.synthetic.write_dataset(
            tmp_path / str(seed), wl.classes, 3, wl.source_size, seed)
        trees[seed] = {p.relative_to(root): fsqnet.data.load_image(p)
                       for p in sorted(root.rglob("*.ppm"))}
    assert trees[1].keys() == trees[2].keys()
    assert all(trees[1][k].pixels.shape == trees[2][k].pixels.shape for k in trees[1])
    assert any((trees[1][k].pixels != trees[2][k].pixels).any() for k in trees[1])


def test_computed_counts_match_the_stem_accumulator_at_batch_32():
    config = workloads.WORKLOADS["infer-v11-244"].model_config()
    stem = counts.conv_counts(config, 32)["stem"]
    assert stem["largest_acc_bytes_at_batch"] == 32 * 121 * 121 * 64 * 8
    assert stem["macs_per_image"] == 121 * 121 * 64 * 27


def test_self_times_and_remainder_add_up_to_the_root():
    s = tracing.Span
    spans = [
        s(2, "ops.a", "ops", "main", 1, 1, 1.0, 3.0),
        s(3, "data.b", "data", "main", 1, 1, 4.0, 5.0),
        s(4, "data.c", "data", "worker", None, 1, 1.0, 9.0),
        s(1, "bench.train", "bench", "main", None, 1, 0.0, 10.0),
    ]
    out = tracing.layer_attribution(spans, ("train",))
    assert out["self_s"]["ops"] == 2.0 and out["self_s"]["data"] == 1.0
    assert out["unattributed_s"] == 7.0 and out["total_s"] == 10.0
    assert out["concurrent_s"]["data"] == 8.0


def test_host_probe_scales_by_the_probes_around_an_interval():
    probe = hostspeed.HostProbe()
    probe.ends = [1.0, 2.0, 2.1, 3.0, 6.0]
    probe.seconds = [0.009, 0.0045, 0.005, 0.003, 0.001]
    ref = hostspeed.REFERENCE_S
    # a short interval: the nearest probe on each side
    assert probe.scale(2.5, 2.6) == pytest.approx(ref / 0.004)
    # within one interval's length of either side
    assert probe.scale(2.05, 2.06) == pytest.approx(ref / 0.00475)
    assert probe.scale(1.5, 2.5) == pytest.approx(ref / 0.006)
    # after the last probe
    assert probe.scale(6.5, 7.0) == pytest.approx(ref / 0.001)
    probe.measure()
    assert len(probe.seconds) == 6 and probe.seconds[-1] > 0


def test_compare_flags_regressions_and_wide_spreads():
    assert compare.verdict([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1) == "REGRESSION"
    assert compare.verdict([100, 101, 99, 100], [99, 100, 98, 99], "higher", 0.1) == "ok"
    assert compare.verdict([50, 150, 100, 60], [100, 100, 100, 100], "lower", 0.1) == "unresolved"
    assert compare.verdict([50, 150, 100, 60], [10, 11, 12, 10], "lower", 0.1) == "better, all runs"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-tiny-32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

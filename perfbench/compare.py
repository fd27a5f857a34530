"""Compare two sets of benchmark result records, one row per workload and metric.

Each side is a directory searched recursively for the ``*.json`` records
run.py writes.  A row gives each side's median and quartiles over its runs.
For end-to-end metrics, against the bound in BENCHMARK.json:

- ``REGRESSION``: the after median is worse than the before median by more than the bound;
- ``unresolved``: a side's quartile spread is wider than the bound, unless every
  after run beats every before run (``better, all runs``);
- ``ok`` otherwise.

Per-layer metrics have no bound; their rows give the ratio only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace flag) -> metric -> values over the records under directory."""
    runs: dict[tuple[str, int], dict[str, list[float]]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if "result" not in record:
            continue
        key = (record["workload"], 1 if record.get("trace") else 0)
        for name, metric in record["result"]["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, a_med = quartiles(before)[1], quartiles(after)[1]
    worse_by = sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    if max(spread(before), spread(after)) > bound:
        if all(sign * a < sign * b for a in after for b in before):
            return "better, all runs"
        return "unresolved"
    if worse_by > bound:
        return "REGRESSION"
    return "ok"


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def report(before_dir: Path, after_dir: Path, spec: dict) -> str:
    before, after = load(before_dir), load(after_dir)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    rows = [("workload", "metric", "before median [q1, q3]", "after median [q1, q3]",
             "after/before", "verdict")]
    for key in sorted(set(before) | set(after)):
        workload = key[0] + (" (traced)" if key[1] else "")
        names = sorted(set(before.get(key, {})) | set(after.get(key, {})))
        for name in names:
            b, a = before.get(key, {}).get(name), after.get(key, {}).get(name)
            if not b or not a:
                rows.append((workload, name, _fmt(b) if b else "-", _fmt(a) if a else "-", "-",
                             "missing"))
                continue
            b_med = quartiles(b)[1]
            ratio = f"{quartiles(a)[1] / b_med:.4f}" if b_med else "-"
            m = bounded.get(name)
            mark = verdict(b, a, m["better"], m["bound"]) if m else ""
            rows.append((workload, name, _fmt(b), _fmt(a), ratio, mark))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)

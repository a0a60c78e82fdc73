#!/usr/bin/env python3
"""Compare two result sets of benchmark runs, or report the spread of one.

  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
  python3 perfbench/compare.py RESULTS_DIR

A result set is a directory holding run records, as run.py writes them
under `<out>/runs/`.  Only untraced runs count.  Within each workload the
runs are taken in the order they started, and the i-th parent run is paired
with the i-th change run, so run the two sides alternately.

For each workload and end-to-end metric of BENCHMARK.json the comparison
prints both sides' medians and quartiles, the change's share of won pairs
(ties count for neither) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ, in its favour, by more than the parent's quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  neither, and a side's quartile spread (as a share of its
              median) is wider than the bound, unless every change run
              reads better than every parent run
  unchanged   otherwise

With one result set it prints, per workload and metric, the median, the
quartiles and the spread (q3 - q1) / median against the bound.

Exit code 1 when a metric regressed (two sets), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, in the order they started."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and "metrics" in record:
            by_workload[record["workload"]].append(record)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["started"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict for one metric and the change's share of won pairs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (p - c) > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _c1, cm, _c3 = quartiles(change)
    gain = sign * (pm - cm)
    worse_by = -gain / abs(pm) if pm else (0.0 if gain >= 0 else float("inf"))
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if share >= WIN_SHARE and gain > (p3 - p1):
        return "improved", share
    if worse_by > bound:
        return "regressed", share
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved", share
    return "unchanged", share


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs]


def report_spread(runs_by_workload: dict[str, list[dict]], metrics: list[dict]) -> int:
    print(f"{'workload':14} {'metric':12} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}")
    for workload, runs in sorted(runs_by_workload.items()):
        for m in metrics:
            vals = _values(runs, m["name"])
            q1, med, q3 = quartiles(vals)
            flag = "" if spread(vals) <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:14} {m['name']:12} {len(vals):3d} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread(vals):8.4f} {m['bound']:6.3g}{flag}")
    return 0


def report_compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
                   metrics: list[dict]) -> int:
    code = 0
    print(f"{'workload':14} {'metric':12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>9} verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:14} only in one result set")
            continue
        for m in metrics:
            p, c = _values(parent[workload], m["name"]), _values(change[workload], m["name"])
            v, share = verdict(p, c, m["better"], m["bound"])
            code |= v == "regressed"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"{workload:14} {m['name']:12} {pm:11.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:11.5g} [{c1:9.5g}, {c3:9.5g}] {share:5.2f}/{min(len(p), len(c)):<3d} {v}")
    return int(code)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load_runs(Path(d)) for d in argv]
    if len(sets) == 1:
        return report_spread(sets[0], metrics)
    return report_compare(sets[0], sets[1], metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

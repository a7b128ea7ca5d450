"""Compare end-to-end results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the ``<workload>-seed<N>-trace0.json`` records that
``run.py`` writes to perfbench/out/results/ of its checkout.  Runs are paired
by workload and seed.  For every workload and metric the script prints each
side's median and quartiles, the pairs the change won, and a verdict:

* ``gain``        the change won at least 9 of every 10 pairs (ties count
                  for neither) and the medians differ by more than the
                  parent's own quartile spread;
* ``regression``  the change's median is worse than the parent's by more
                  than the metric's bound in BENCHMARK.json;
* ``unresolved``  the parent's quartile spread is wider than the bound and
                  the change did not beat the parent on every run;
* ``same``        otherwise.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"^(?P<workload>[\w.-]+)-seed(?P<seed>-?\d+)-trace0\.json$")


def load(directory: Path) -> dict:
    runs = {}
    for path in sorted(directory.iterdir()):
        m = _NAME.match(path.name)
        if m:
            record = json.loads(path.read_text())
            if record["correct"]:
                runs[m["workload"], int(m["seed"])] = record["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, lower_is_better: bool, bound: float) -> tuple[str, int]:
    sign = -1 if lower_is_better else 1  # sign * (x - y) > 0: x is better than y
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1:
        return "gain", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound * abs(pm) and not every_run_better:
        return "unresolved", wins
    return "same", wins


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    for workload in workloads:
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        print(f"{workload}: {len(seeds)} pairs")
        for name, m in metrics.items():
            p = [parent[workload, s][name]["value"] for s in seeds]
            c = [change[workload, s][name]["value"] for s in seeds]
            if not p:
                continue
            result, wins = verdict(p, c, m["better"] == "lower", m["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:12s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
                  f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {m['unit']}  "
                  f"won {wins}/{len(seeds)}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two full-set reports written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json

For every workload and end-to-end metric it prints A's and B's value
(latency percentiles over the pooled samples, other metrics the median
of the rounds), both spreads ((max - min) / median over the rounds), the
change from A to B, and a verdict:

- ``unresolved``: the wider spread exceeds the metric's bound, so the
  runs cannot tell a change of that size from noise; unless every round
  of B reads better than every round of A, which is ``better``;
- ``worse`` / ``better``: B moved past the bound;
- ``within bound``: otherwise.

``failed_frac`` has a bound of zero: any rise is ``worse``. The exit
code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys


def verdict(a: dict, b: dict) -> tuple[float, str]:
    """The signed change (positive = worse) and the verdict of one row."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if sign > 0:
        every_round_better = max(b["rounds"]) < min(a["rounds"])
    else:
        every_round_better = min(b["rounds"]) > max(a["rounds"])
    if max(a["spread"], b["spread"]) > a["bound"]:
        return worse_by, "better" if every_round_better else "unresolved"
    if worse_by > a["bound"]:
        return worse_by, "worse"
    if -worse_by > a["bound"]:
        return worse_by, "better"
    return worse_by, "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    a, b = reports
    print(f"A: {argv[0]} (rev {a['git_rev'][:12]}, seed {a['seed']})")
    print(f"B: {argv[1]} (rev {b['git_rev'][:12]}, seed {b['seed']})")
    print(f"{'workload':<12} {'metric':<18} {'A':>11} {'B':>11} "
          f"{'spread A':>8} {'spread B':>8} {'change':>8} {'bound':>6}  "
          f"verdict")
    worse = 0
    for name, entry in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            print(f"{name:<12} missing from B")
            worse += 1
            continue
        for metric, row in entry["metrics"].items():
            change, outcome = verdict(row, other["metrics"][metric])
            worse += outcome == "worse"
            print(f"{name:<12} {metric:<18} {row['value']:>11.5g} "
                  f"{other['metrics'][metric]['value']:>11.5g} "
                  f"{row['spread']:>8.3f} "
                  f"{other['metrics'][metric]['spread']:>8.3f} "
                  f"{change:>+8.3f} {row['bound']:>6}  {outcome}")
        failed = other["failed_frac"] > entry["failed_frac"]
        worse += failed
        print(f"{name:<12} {'failed_frac':<18} {entry['failed_frac']:>11.5g} "
              f"{other['failed_frac']:>11.5g} {'':>8} {'':>8} {'':>8} "
              f"{0:>6}  {'worse' if failed else 'within bound'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two result files of ``python -m bench``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the candidate.  For every pairing
of end-to-end metric and workload the verdict is one of

identical   simulated-time metrics, ``fail_share``, ``events_per_op`` and
            digests: these repeat exactly for a given seed, so anything
            but equality means behaviour changed (a failure)
unchanged   host-time median (seconds at the reference speed) within the
            bound BENCHMARK.json fixes
improved    better by more than the bound, or every run of B reads better
            than every run of A
regressed   worse by more than the bound (a failure)
unresolved  a side's spread (quartile distance over median) is wider than
            the bound, so the data cannot tell — unless every run of B
            reads better than every run of A, which is an improvement

Every ratio is printed with its base.  Exit status 1 on any regression
or exact-value/digest mismatch, 0 otherwise; ``unresolved`` does not
fail but claims nothing either.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def is_exact(metric: str) -> bool:
    return metric.endswith("_vs") or metric in (
        "fail_share", "sim.kernel.events_per_op")


def spread(entry: Dict[str, Any]) -> float:
    """Quartile distance over median of one side's own runs (0 if n < 2)."""
    values = entry.get("values", [])
    if len(values) < 2 or not entry["value"]:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(entry["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = a["value"]
    worse_by = sign * (b["value"] - base) / abs(base) if base else 0.0
    a_runs, b_runs = a.get("values", []), b.get("values", [])
    every_b_better = len(a_runs) >= 2 and len(b_runs) >= 2 and (
        max(b_runs) < min(a_runs) if better == "lower"
        else min(b_runs) > max(a_runs))
    if max(spread(a), spread(b)) > bound:
        return "improved" if every_b_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > bound or every_b_better:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            benchmark: Dict[str, Any]) -> List[str]:
    """Print the table; return the failures."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    failures: List[str] = []
    if a["env"]["seed"] != b["env"]["seed"] or a["quick"] != b["quick"]:
        failures.append(
            "the two files were not produced with the same seed and sizes")
    for side, doc in (("A", a), ("B", b)):
        env = doc["env"]
        print(f"{side}: commit={env['commit']} seed={env['seed']} "
              f"load={env['loadavg_start'][0]:.2f} "
              f"calib_s={env['calib_s'][0]:.4f}/{env['calib_s'][-1]:.4f}")

    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            failures.append(f"{name}: missing from B")
            continue
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"][metric]
            if is_exact(metric) or metric not in bounds:
                same = ea["value"] == eb["value"]
                status = "identical" if same else "CHANGED"
            else:
                status = verdict(ea, eb, bounds[metric]["better"],
                                 bounds[metric]["bound"])
            ratio = (f"B/A = {eb['value'] / ea['value']:.4f}"
                     if ea["value"] else "B/A = n/a")
            print(f"{name:12s} {metric:20s} {status:10s} {ratio} "
                  f"(A = {ea['value']:.6g} {ea['unit']}, "
                  f"B = {eb['value']:.6g}, spread A {spread(ea):.3f} "
                  f"B {spread(eb):.3f})")
            if status in ("CHANGED", "regressed"):
                failures.append(f"{name} {metric}: {status}")
        per_a, per_b = wa.get("per_layer", {}), wb.get("per_layer", {})
        for metric in per_a:
            if is_exact(metric) and metric in per_b and (
                    per_a[metric]["value"] != per_b[metric]["value"]):
                failures.append(
                    f"{name} {metric}: {per_a[metric]['value']!r} -> "
                    f"{per_b[metric]['value']!r}")
        if wa["digests"] != wb["digests"]:
            failures.append(f"{name}: digests differ")
        else:
            print(f"{name:12s} {'digests':20s} identical  "
                  f"({', '.join(wa['digests'])})")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    failures = compare(a, b, json.loads(BENCHMARK_JSON.read_text()))
    for failure in failures:
        print(f"FAIL {failure}")
    print("nothing regressed, every exact value and digest identical"
          if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line of the benchmark.

``python -m bench [--seed N] [--repeats N] [--quick] [--out FILE]``
    every workload, one child process each, never two at once; prints
    every metric by name with its unit and writes the result file.

``python -m bench --workload W --seed N --seconds S --trace 0|1``
    one workload in this process (the form ``BENCHMARK.json`` names).
    The last line of standard output is one JSON object: the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import OUT_DIR, ROOT, SRC

#: timed rounds per workload of the full command (about 10 s each)
ROUNDS = 8


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(detail: Dict[str, Any]) -> None:
    name = detail["workload"]
    for block in ("end_to_end", "per_layer"):
        for metric, entry in detail.get(block, {}).items():
            spread = ""
            if "q1" in entry:
                spread = "  (n={n} min={lo} q1={q1} q3={q3} max={hi})".format(
                    n=entry["n"], lo=_fmt(entry["min"]), q1=_fmt(entry["q1"]),
                    q3=_fmt(entry["q3"]), hi=_fmt(entry["max"]))
            elif entry.get("n", 1) > 1:
                spread = f"  (n={entry['n']})"
            print(f"{name:12s} {metric:40s} {_fmt(entry['value']):>14s} "
                  f"{entry['unit']}{spread}")
    for key, digest in detail["digests"].items():
        print(f"{name:12s} {key:40s} {digest}")
    for failure in detail["failures"]:
        print(f"{name:12s} CHECK FAILED: {failure}")


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process."""
    from bench.measure import measure
    from bench.metrics import contract_blocks

    trace = args.trace == 1
    repeats = args.repeats
    if repeats is None and trace:
        # the per-layer metrics come from the layer pass; one timed
        # round supplies the digests and counts it must reproduce
        repeats = 1
    detail = measure(args.workload, args.seed, args.quick, repeats,
                     args.seconds, trace, args.size)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print_metrics(detail)

    block = "per_layer" if trace else "end_to_end"
    merged = {**detail["end_to_end"], **detail.get("per_layer", {})}
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m.name: {"value": merged[m.name]["value"], "unit": m.unit}
            for m in contract_blocks()[block]
        },
    }))
    return 0 if detail["correct"] else 1


def calib_s() -> float:
    """A fixed pure-Python spin (about half a second on this box), timed
    before the first and after the last workload so a noisy or throttled
    machine shows in the artifact instead of reading as a regression."""
    started = time.perf_counter()
    total = 0
    for i in range(16_000_000):
        total += i & 7
    return time.perf_counter() - started


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one after another, each in its own child process."""
    from bench.workloads import WORKLOADS

    env = {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": args.seed,
        "repeats": {},
        "calib_s": [calib_s()],
    }
    workloads: Dict[str, Any] = {}
    ok = True
    for name in WORKLOADS:
        repeats = 1 if args.quick else args.repeats or ROUNDS
        env["repeats"][name] = repeats
        command = [sys.executable, "-m", "bench", "--workload", name,
                   "--seed", str(args.seed), "--repeats", str(repeats),
                   "--trace", "1"] + (["--quick"] if args.quick else [])
        status = subprocess.run(command, cwd=ROOT).returncode
        detail_path = OUT_DIR / f"{name}.json"
        if status not in (0, 1) or not detail_path.exists():
            print(f"{name}: child exited with status {status}")
            return 2
        workloads[name] = json.loads(detail_path.read_text())
        ok = ok and status == 0 and workloads[name]["correct"]
    env["calib_s"].append(calib_s())

    result = {"schema": 1, "quick": args.quick, "env": env,
              "workloads": workloads}
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"env: nproc={env['nproc']} load={env['loadavg_start']} "
          f"python={env['python']} commit={env['commit']} seed={args.seed} "
          f"calib_s={_fmt(env['calib_s'][0])}/{_fmt(env['calib_s'][1])} s")
    print(f"result file: {out}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: {SRC / 'repro'} not found — the benchmark measures "
              "the checkout it sits in", file=sys.stderr)
        return 2
    # the checkout's sources first, whatever else is installed
    sys.path.insert(0, str(SRC))
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="measure this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="with --workload: keep running rounds until "
                             "this much host time has passed")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed rounds (overrides --seconds)")
    parser.add_argument("--size", type=int, default=None,
                        help="with --workload: operations per application "
                             "instead of the size in the name, to look at "
                             "another scale; never a measurement to compare")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 adds the layer pass and "
                             "makes the last line the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="every size divided by 8, one round; a smoke "
                             "run, never a measurement")
    parser.add_argument("--out", help="result file of the full command")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

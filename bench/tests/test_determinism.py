"""Same seed, same digests and exact values; another seed, other inputs
but every check still green (seed 1 is the held-out seed)."""

import subprocess
import sys

from bench import ROOT
from bench.compare import is_exact


def _exact(result):
    """Everything that must repeat for a given seed."""
    out = {}
    for name, detail in result["workloads"].items():
        out[name, "digests"] = detail["digests"]
        out[name, "events"] = detail["events"]
        for block in ("end_to_end", "per_layer"):
            for metric, entry in detail[block].items():
                if is_exact(metric) or entry["unit"] == "count":
                    out[name, metric] = entry["value"]
    return out


def _compare(a, b):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), str(a), str(b)],
        capture_output=True, text=True, timeout=60)


def test_same_seed_repeats_exactly(quick):
    _, first, first_path = quick(0)
    _, second, second_path = quick(0, "again")
    assert _exact(first) == _exact(second)
    # compare.py agrees: every exact value and digest identical.  Host
    # times of a one-repeat quick run are not a measurement, so only the
    # exact verdicts are asserted here.
    proc = _compare(first_path, second_path)
    assert "CHANGED" not in proc.stdout and "digests differ" not in proc.stdout


def test_held_out_seed_changes_inputs_but_passes(quick):
    _, seed0, path0 = quick(0)
    _, seed1, path1 = quick(1)
    for name, detail in seed1["workloads"].items():
        assert detail["correct"] is True and detail["failures"] == []
        if name != "bag_2k":
            # the bag has heterogeneity 0, so its seed moves only the
            # simulator's RNG streams, and at quick size no RPC retries
            # (whose backoff jitter is the one draw a fault-free run makes)
            assert detail["digests"] != seed0["workloads"][name]["digests"]
    proc = _compare(path0, path1)
    assert proc.returncode == 1
    assert "not produced with the same seed" in proc.stdout

"""Shared quick runs: one `python -m bench --quick` per seed per session."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import ROOT


def run_quick(seed: int, out: Path):
    """Run the quick benchmark; return (stdout, parsed result file)."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--seed", str(seed),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="session")
def quick(tmp_path_factory):
    """`quick(seed, tag)` -> (stdout, result, path), one run per
    distinct (seed, tag) per session."""
    directory = tmp_path_factory.mktemp("bench")
    cache = {}

    def get(seed: int, tag: str = ""):
        if (seed, tag) not in cache:
            path = directory / f"quick{seed}{tag}.json"
            cache[seed, tag] = run_quick(seed, path) + (path,)
        return cache[seed, tag]

    return get

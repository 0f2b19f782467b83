"""The BENCH_6 behaviour gate, in tier-1.

``BENCH_6.json`` at the repo root holds the trace and metrics hashes of
three fixed-seed scenarios (``benchmarks/harness.py``).  ``src/`` has one
path per algorithm and no switch to compare against, so this is what
says a change to host selection, the site scheduler, the kernel or the
monitor/echo bookkeeping left behaviour alone: the hashes a fresh run
produces are the committed ones.  CI runs the same comparison through
``repro bench --compare``.
"""

import json
from pathlib import Path

from benchmarks import harness
from repro.cli import main

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_6.json"


def test_fresh_run_reproduces_the_committed_document():
    committed = json.loads(COMMITTED.read_text())
    current = harness.run_all()
    assert harness.compare(committed, current) == []
    # the counts too, and nothing machine-dependent left in the file:
    # it is byte for byte what `repro bench --out` writes here
    assert COMMITTED.read_text() == harness.to_json(current)


def test_cli_compare_of_a_document_without_hashes_is_a_reported_problem(
        tmp_path, capsys):
    committed = json.loads(COMMITTED.read_text())
    del committed["scenarios"]["scalability"]["trace_hash"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(committed))
    assert main(["bench", "--compare", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "1 problem(s)" in out
    assert "scalability: previous document has no trace_hash" in out

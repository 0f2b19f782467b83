"""End-to-end attribution over the canonical bench scenarios.

The explain determinism oracle: two span-enabled runs of the same
scenario must produce byte-identical attribution reports, every
application's breakdown must sum to its wall time, and the span stream
must satisfy I9 (every open paired with exactly one close/orphan).
Also pins the behaviour-neutrality contract: enabling spans adds span
events and changes nothing else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import harness
from repro.cli import main as cli_main
from repro.obs.attribution import (
    explain,
    report_hash,
    report_to_json,
    span_integrity,
)
from repro.obs.profile import folded_stacks
from repro.trace.events import EventKind

_SPAN_KINDS = (EventKind.SPAN_OPEN, EventKind.SPAN_CLOSE,
               EventKind.SPAN_ORPHAN)


@pytest.mark.parametrize("name", list(harness.SCENARIOS))
class TestScenarioAttribution:
    def test_report_is_deterministic(self, name):
        first = explain(harness.run_traced(name, causal_spans=True))
        second = explain(harness.run_traced(name, causal_spans=True))
        assert report_to_json(first) == report_to_json(second)
        assert report_hash(first) == report_hash(second)

    def test_breakdown_sums_to_wall_and_spans_pair_up(self, name):
        events = harness.run_traced(name, causal_spans=True)
        assert span_integrity(events) == []
        report = explain(events)
        assert report["apps"], "scenario produced no application spans"
        for app, info in report["apps"].items():
            assert abs(info["breakdown_residual_s"]) <= 1e-6, app
            # host_selection is scheduler-only: its virtual clock never
            # advances, so a zero wall is legitimate there
            assert info["wall_s"] >= 0.0
            assert info["critical_path"][0]["span"] == "app"
        assert report["integrity"]["violations"] == []

    def test_spans_only_add_events(self, name):
        """Behaviour neutrality: the spans-off event stream is exactly
        the spans-on stream with the span events removed."""
        plain = harness.run_traced(name, causal_spans=False)
        spanned = harness.run_traced(name, causal_spans=True)
        stripped = [e for e in spanned if e.kind not in _SPAN_KINDS]
        assert len(stripped) == len(plain)
        for ours, theirs in zip(stripped, plain):
            assert ours.kind == theirs.kind
            assert ours.time == theirs.time
            assert ours.source == theirs.source
            assert ours.data == theirs.data

    def test_profile_is_stable(self, name):
        events = harness.run_traced(name, causal_spans=True)
        stacks = folded_stacks(events, prefix=name)
        assert all(key.startswith(f"{name};") for key in stacks)
        if name != "host_selection":  # zero virtual time -> zero self time
            assert stacks
        assert folded_stacks(
            harness.run_traced(name, causal_spans=True), prefix=name
        ) == stacks


class TestExplainCli:
    def test_scenario_mode_exits_clean(self, capsys):
        assert cli_main(["explain", "--scenario", "end_to_end"]) == 0
        out = capsys.readouterr().out
        assert "report hash" in out
        assert "execution" in out
        assert "critical path: app" in out
        assert ("scheduling round: 120 task(s) placed on 4 of the 4 site(s) "
                "that bid (3 remote)") in out

    def test_scenario_mode_runs_from_a_subdirectory(self):
        """The scenarios live in the checkout, not the installed package:
        the command finds them from any directory inside it."""
        tests_dir = Path(__file__).resolve().parents[1]
        src = tests_dir.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "explain", "--scenario",
             "host_selection"],
            cwd=tests_dir, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "report hash" in done.stdout

    def test_json_and_hash_outputs_agree(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        hash_path = tmp_path / "hash.json"
        code = cli_main([
            "explain", "--scenario", "host_selection",
            "--json", str(json_path), "--hashes", str(hash_path),
        ])
        assert code == 0
        capsys.readouterr()
        report = json.loads(json_path.read_text())
        digest = json.loads(hash_path.read_text())["report"]
        assert report_hash(report) == digest

    def test_requires_exactly_one_input(self, capsys):
        assert cli_main(["explain"]) == 1
        assert cli_main([
            "explain", "trace.jsonl", "--scenario", "end_to_end"
        ]) == 1
        capsys.readouterr()

"""CLI metrics surface: run --metrics, the metrics and analyze commands."""

import json

from repro.cli import main
from repro.metrics.export import load_snapshot, snapshot_hash


class TestRunWithMetrics:
    def test_run_writes_canonical_snapshot(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["run", "linear-solver", "--scale", "0.1",
                     "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        snapshot = load_snapshot(str(path))
        assert snapshot["counters"]
        assert "vdce_schedule_decisions_total" in snapshot["counters"]
        assert "sim_events_total" in snapshot["counters"]
        assert f"metrics snapshot written to {path}" in out
        assert snapshot_hash(snapshot)[:16] in out

    def test_trace_and_metrics_together(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        assert main(["run", "linear-solver", "--scale", "0.1",
                     "--trace", str(trace), "--metrics", str(metrics)]) == 0
        assert trace.exists() and metrics.exists()

    def test_monitor_with_metrics(self, tmp_path, capsys):
        path = tmp_path / "mon.json"
        assert main(["monitor", "--duration", "10",
                     "--metrics", str(path)]) == 0
        snapshot = load_snapshot(str(path))
        assert "vdce_host_load" in snapshot["series"]
        assert "vdce_monitor_reports_by_host_total" in snapshot["counters"]

    def test_run_without_metrics_writes_nothing(self, tmp_path, capsys):
        assert main(["run", "linear-solver", "--scale", "0.1"]) == 0
        assert "metrics snapshot" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestMetricsCommand:
    def test_prometheus_from_saved_snapshot(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["run", "linear-solver", "--scale", "0.1",
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sim_events_total counter" in out
        assert 'le="+Inf"' in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["run", "linear-solver", "--scale", "0.1",
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == load_snapshot(str(path))

    def test_missing_snapshot_is_an_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().out

    def test_quick_deployment_when_no_file(self, capsys):
        assert main(["metrics", "--sites", "2", "--hosts", "2"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE vdce_schedule_decisions_total counter" in out
        assert "vdce_host_load" in out


class TestAnalyzeCommand:
    def _write_trace(self, tmp_path, name, scale="0.1"):
        path = tmp_path / name
        assert main(["run", "linear-solver", "--scale", scale,
                     "--trace", str(path)]) == 0
        return path

    def test_single_trace_analysis(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, "t.jsonl")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "per-host utilization" in out
        assert "schedule->start lag" in out

    def test_identical_traces_diff_exit_zero(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a.jsonl")
        b = self._write_trace(tmp_path, "b.jsonl")
        capsys.readouterr()
        assert main(["analyze", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_two(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a.jsonl", scale="0.1")
        b = self._write_trace(tmp_path, "b.jsonl", scale="0.2")
        capsys.readouterr()
        assert main(["analyze", str(a), str(b)]) == 2
        out = capsys.readouterr().out
        assert "first divergence" in out

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().out

    def test_modulo_diffs_the_first_trace_with_kinds_dropped(
            self, tmp_path, capsys):
        from repro.trace.events import TraceEvent
        from repro.trace.serialize import read_jsonl, write_jsonl

        a = self._write_trace(tmp_path, "a.jsonl")
        kept = [e for e in read_jsonl(str(a))
                if e.kind not in ("task_start", "data_transfer")]
        b = write_jsonl([TraceEvent(e.time, seq, e.kind, e.source, e.data)
                         for seq, e in enumerate(kept)],
                        str(tmp_path / "b.jsonl"))
        capsys.readouterr()
        assert main(["analyze", str(a), b]) == 2
        assert main(["analyze", str(a), b,
                     "--modulo", "task_start,data_transfer"]) == 0
        assert "identical" in capsys.readouterr().out.splitlines()[-1]
        assert main(["analyze", str(a), b, "--modulo", "task_start"]) == 2
        assert main(["analyze", str(a), "--modulo", "task_start"]) == 1
        assert "needs two traces" in capsys.readouterr().out

    def test_modulo_applies_a_declared_move_by_name(self, tmp_path, capsys):
        """An idle federation echoed by every member (the reference
        loop) and by the loop that counts a quiet echo: equal under the
        move, not with the ``echo`` kind dropped — the change keeps each
        host's first, answered echo."""
        from repro.runtime import RuntimeConfig, VDCERuntime
        from repro.sim import TopologyBuilder
        from repro.trace.serialize import write_jsonl
        from repro.trace.tracer import Tracer
        from tests.runtime._reference_echo import every_echo_traced

        def trace(name):
            topology = TopologyBuilder(seed=0).site("site-0", n_hosts=3)
            rt = VDCERuntime(topology.build(), config=RuntimeConfig(),
                             tracer=Tracer())
            rt.start_monitoring()
            rt.sim.run(until=30.0)
            return write_jsonl(rt.tracer, str(tmp_path / name))

        with every_echo_traced():
            a = trace("a.jsonl")
        b = trace("b.jsonl")
        capsys.readouterr()
        assert main(["analyze", a, b]) == 2
        assert main(["analyze", a, b, "--modulo", "echo"]) == 2
        assert main(["analyze", a, b, "--modulo", "elide_quiet_echoes"]) == 0
        assert "identical" in capsys.readouterr().out.splitlines()[-1]
        assert main(["analyze", a, b, "--modulo",
                     "elide_repeated_reports,elide_quiet_echoes"]) == 0
        assert main(["analyze", a, b, "--modulo", "elide_quiet_echos"]) == 1
        assert capsys.readouterr().out.strip().splitlines()[-1] == \
            "error: unknown event kind elide_quiet_echos"

    def test_modulo_refuses_an_unknown_kind(self, tmp_path, capsys):
        """A misspelt kind drops nothing: the diff would report the
        declared move as a mismatch instead of naming the typo."""
        a = self._write_trace(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["analyze", str(a), str(a),
                     "--modulo", "task_start,task_strat"]) == 1
        out = capsys.readouterr().out
        assert out.strip() == "error: unknown event kind task_strat"

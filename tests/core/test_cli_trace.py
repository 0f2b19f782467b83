"""CLI --trace: the run command writes parseable JSONL + prints a summary."""

import pytest

from repro.cli import main
from repro.trace import EventKind, read_jsonl, trace_hash


class TestCLITrace:
    def test_run_with_trace_writes_parseable_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main(["run", "linear-solver", "--scale", "0.1",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out

        events = read_jsonl(str(trace_path))
        assert events, "trace file must contain events"
        kinds = {e.kind for e in events}
        assert EventKind.TASK_START in kinds
        assert EventKind.TASK_FINISH in kinds
        assert EventKind.SCHEDULE_DECISION in kinds
        assert EventKind.CHANNEL_SETUP in kinds

        # summary table + hash render on stdout
        assert "trace summary" in out
        # the phase table reads the causal spans the trace records
        assert "phase timings" in out
        assert "execute" in out
        assert EventKind.SPAN_OPEN in kinds
        assert f"trace written to {trace_path}" in out
        assert trace_hash(events)[:16] in out

    def test_run_with_trace_and_monitoring(self, tmp_path, capsys):
        trace_path = tmp_path / "mon.jsonl"
        assert main(["run", "linear-solver", "--scale", "0.1", "--monitoring",
                     "--trace", str(trace_path)]) == 0
        events = read_jsonl(str(trace_path))
        kinds = {e.kind for e in events}
        # the run ends before the first echo round (5s period), but the
        # monitor daemons report from t=0
        assert EventKind.MONITOR_REPORT in kinds

    def test_run_without_trace_writes_nothing(self, tmp_path, capsys):
        assert main(["run", "linear-solver", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" not in out
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "explain"])
@pytest.mark.parametrize("line", [
    "[1,2]",                                           # not an object
    '{"trace_header": 3}',                             # header not an object
    '{"time": 0, "seq": 0, "kind": "x", "data": [1, 2]}',   # data a list
])
def test_a_malformed_trace_line_is_an_error_not_a_traceback(
        tmp_path, capsys, command, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    assert main([command, str(path)]) == 1
    out = capsys.readouterr().out
    assert f"error: cannot read trace {path}: bad trace line 1" in out

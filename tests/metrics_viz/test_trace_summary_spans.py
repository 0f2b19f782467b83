"""phase_timings over the span forest: unbalanced, nested, orphaned,
close-without-open, suppression."""

from repro.metrics.trace_summary import format_trace_summary, phase_timings
from repro.obs.spans import SpanRecorder
from repro.trace.events import EventKind, TraceEvent
from repro.trace.tracer import Tracer


def _open(time, seq, kind, span_id, parent_id=None):
    return TraceEvent(time=time, seq=seq, kind=EventKind.SPAN_OPEN,
                      source="t",
                      data={"span": kind, "span_id": span_id,
                            "parent_id": parent_id, "application": "a"})


def _close(time, seq, kind, span_id):
    return TraceEvent(time=time, seq=seq, kind=EventKind.SPAN_CLOSE,
                      source="t",
                      data={"span": kind, "span_id": span_id,
                            "application": "a", "status": "ok"})


def _orphan(time, seq, kind, span_id):
    return TraceEvent(time=time, seq=seq, kind=EventKind.SPAN_ORPHAN,
                      source="t",
                      data={"span": kind, "span_id": span_id,
                            "application": "a", "reason": "crash"})


class TestPhaseTimings:
    def test_balanced_spans(self):
        events = [
            _open(0.0, 0, "schedule", 1),
            _close(1.5, 1, "schedule", 1),
        ]
        agg = phase_timings(events)["schedule"]
        assert agg == {"count": 1, "total_s": 1.5, "max_s": 1.5, "unclosed": 0}

    def test_unclosed_span_is_reported_not_counted(self):
        events = [
            _open(0.0, 0, "execute", 1),
            _open(1.0, 1, "execute", 2),
            _close(2.0, 2, "execute", 2),
        ]
        agg = phase_timings(events)["execute"]
        assert agg["count"] == 1
        assert agg["total_s"] == 1.0
        assert agg["unclosed"] == 1

    def test_nested_same_name_spans_aggregate_independently(self):
        events = [
            _open(0.0, 0, "rpc", 1),
            _open(1.0, 1, "rpc", 2, parent_id=1),
            _close(2.0, 2, "rpc", 2),
            _close(5.0, 3, "rpc", 1),
        ]
        agg = phase_timings(events)["rpc"]
        assert agg["count"] == 2
        assert agg["total_s"] == 6.0
        assert agg["max_s"] == 5.0
        assert agg["unclosed"] == 0

    def test_orphaned_span_counts_as_unclosed(self):
        events = [
            _open(0.0, 0, "task", 1),
            _orphan(4.0, 1, "task", 1),
        ]
        assert phase_timings(events)["task"] == {
            "count": 0, "total_s": 0.0, "max_s": 0.0, "unclosed": 1,
        }

    def test_close_without_open_is_no_phase(self):
        # an I9 violation, not a phase: the forest has no node for it
        events = [_close(3.0, 0, "task", 99)]
        assert phase_timings(events) == {}

    def test_tracer_round_trip(self):
        tracer = Tracer()
        clock = [0.0]
        tracer.bind_clock(lambda: clock[0])
        spans = SpanRecorder(tracer)
        root = spans.root_of("a")
        schedule = spans.open("schedule", "a", parent=root)
        clock[0] = 2.0
        spans.close(schedule)
        spans.open("execute", "a", parent=root)  # left open on purpose
        timings = phase_timings(tracer)
        assert timings["schedule"] == {"count": 1, "total_s": 2.0,
                                       "max_s": 2.0, "unclosed": 0}
        assert timings["execute"] == {"count": 0, "total_s": 0.0,
                                      "max_s": 0.0, "unclosed": 1}
        assert timings["app"]["unclosed"] == 1


class TestFormatTraceSummary:
    def test_empty_phases_are_suppressed(self):
        events = [
            _open(0.0, 0, "execute", 1),
            _close(1.0, 1, "execute", 1),
            # a close without an open is no phase: nothing to render
            _close(2.0, 2, "drain", 2),
        ]
        text = format_trace_summary(events)
        assert "execute" in text
        assert "phase timings" in text
        assert "drain" not in text.split("phase timings")[1]

    def test_no_spans_means_no_timing_table(self):
        events = [
            TraceEvent(time=0.0, seq=0, kind=EventKind.MONITOR_REPORT,
                       source="m", data={"host": "h0"}),
            # a stray close opens no phase either
            _close(1.0, 1, "task", 7),
        ]
        text = format_trace_summary(events)
        assert "phase timings" not in text
        assert "monitor_report" in text

    def test_unclosed_column_rendered(self):
        events = [_open(0.0, 0, "collect", 1)]
        text = format_trace_summary(events)
        assert "unclosed" in text
        assert "collect" in text

"""Trace-analysis toolkit: critical path, utilization, lag, diff."""

import pytest

from repro import VDCE, Tracer
from repro.metrics.analysis import (
    analyze_trace,
    critical_path,
    elide_quiet_echoes,
    elide_repeated_reports,
    format_analysis,
    format_structural_diff,
    host_timelines,
    schedule_lag,
    structural_diff,
)
from repro.trace.events import EventKind, TraceEvent
from repro.workloads import linear_solver_afg


def _event(time, seq, kind, **data):
    return TraceEvent(time=time, seq=seq, kind=kind, source="test", data=data)


def _chain_trace():
    """a(1s on h0) -> b(2s on h1), plus independent c(4s on h0)."""
    return [
        _event(0.0, 0, EventKind.SCHEDULE_DECISION, task="a"),
        _event(0.0, 1, EventKind.SCHEDULE_DECISION, task="b"),
        _event(0.0, 2, EventKind.SCHEDULE_DECISION, task="c"),
        _event(1.0, 3, EventKind.TASK_START, task="a", hosts=["h0"]),
        _event(1.0, 4, EventKind.TASK_START, task="c", hosts=["h0"]),
        _event(2.0, 5, EventKind.TASK_FINISH, task="a", hosts=["h0"]),
        _event(2.0, 6, EventKind.DATA_TRANSFER, edge=["a", "b"], size_mb=1.0),
        _event(2.5, 7, EventKind.TASK_START, task="b", hosts=["h1"]),
        _event(4.5, 8, EventKind.TASK_FINISH, task="b", hosts=["h1"]),
        _event(5.0, 9, EventKind.TASK_FINISH, task="c", hosts=["h0"]),
    ]


class TestCriticalPath:
    def test_chain_beats_single_long_task(self):
        cp = critical_path(_chain_trace())
        assert cp["tasks"] == 3
        # c alone runs 4s; the a->b chain is 1s + 2s = 3s < 4s
        assert cp["path"] == ["c"]
        assert cp["length_s"] == 4.0

    def test_dependency_chain_wins_when_longer(self):
        events = [e for e in _chain_trace() if e.data.get("task") != "c"]
        cp = critical_path(events)
        assert cp["path"] == ["a", "b"]
        assert cp["length_s"] == 3.0

    def test_empty_trace(self):
        cp = critical_path([])
        assert cp == {"length_s": 0.0, "tasks": 0, "path": []}

    def test_unfinished_tasks_are_skipped(self):
        events = [
            _event(0.0, 0, EventKind.TASK_START, task="a", hosts=["h0"]),
        ]
        assert critical_path(events)["tasks"] == 0


class TestHostTimelines:
    def test_busy_idle_and_utilization(self):
        timelines = host_timelines(_chain_trace())
        # window: 1.0 -> 5.0 (4s).  h0 runs a (1-2) and c (1-5), merged 1-5.
        assert timelines["h0"]["busy_s"] == 4.0
        assert timelines["h0"]["utilization"] == 1.0
        assert timelines["h0"]["tasks"] == 2
        # h1 runs b for 2s of the 4s window
        assert timelines["h1"]["busy_s"] == 2.0
        assert timelines["h1"]["idle_s"] == 2.0
        assert timelines["h1"]["utilization"] == 0.5

    def test_overlapping_intervals_merge(self):
        events = [
            _event(0.0, 0, EventKind.TASK_START, task="a", hosts=["h0"]),
            _event(1.0, 1, EventKind.TASK_START, task="b", hosts=["h0"]),
            _event(2.0, 2, EventKind.TASK_FINISH, task="a", hosts=["h0"]),
            _event(3.0, 3, EventKind.TASK_FINISH, task="b", hosts=["h0"]),
        ]
        tl = host_timelines(events)["h0"]
        assert tl["intervals"] == [(0.0, 3.0)]
        assert tl["busy_s"] == 3.0

    def test_empty(self):
        assert host_timelines([]) == {}


class TestScheduleLag:
    def test_lag_is_decision_to_start(self):
        lag = schedule_lag(_chain_trace())
        assert lag["per_task"] == {"a": 1.0, "b": 2.5, "c": 1.0}
        assert lag["count"] == 3
        assert lag["mean_s"] == 1.5
        assert lag["max_s"] == 2.5

    def test_unscheduled_tasks_absent(self):
        events = [_event(1.0, 0, EventKind.TASK_START, task="x", hosts=["h"])]
        assert schedule_lag(events)["count"] == 0


class TestAnalyzeEndToEnd:
    def test_real_run_analysis(self):
        tracer = Tracer()
        env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=0,
                            tracer=tracer)
        env.submit(linear_solver_afg(scale=0.15), k=1)
        report = analyze_trace(tracer)
        assert report["events"] == len(tracer.events())
        assert report["critical_path"]["path"]
        assert report["critical_path"]["length_s"] > 0
        assert report["host_timelines"]
        assert all(
            0.0 <= tl["utilization"] <= 1.0
            for tl in report["host_timelines"].values()
        )
        assert report["schedule_lag"]["count"] == len(
            report["critical_path"]["path"]
        ) or report["schedule_lag"]["count"] > 0

        text = format_analysis(tracer)
        assert "critical path:" in text
        assert "per-host utilization" in text
        assert "schedule->start lag" in text


class TestStructuralDiff:
    def test_identical_traces(self):
        a = _chain_trace()
        diff = structural_diff(a, list(a))
        assert diff["identical"]
        assert diff["first_divergence"] is None
        assert diff["count_deltas"] == {}
        assert "identical" in format_structural_diff(diff)

    def test_divergent_event_is_located(self):
        a = _chain_trace()
        b = list(a)
        b[4] = _event(1.0, 4, EventKind.TASK_START, task="c", hosts=["h2"])
        diff = structural_diff(a, b)
        assert not diff["identical"]
        assert diff["first_divergence"]["index"] == 4
        assert diff["first_divergence"]["a"]["data"]["hosts"] == ["h0"]
        assert diff["first_divergence"]["b"]["data"]["hosts"] == ["h2"]

    def test_prefix_trace_reports_absent_side(self):
        a = _chain_trace()
        diff = structural_diff(a, a[:-2])
        assert not diff["identical"]
        assert diff["first_divergence"]["index"] == len(a) - 2
        assert diff["first_divergence"]["b"] is None
        assert diff["count_deltas"][EventKind.TASK_FINISH] == {"a": 3, "b": 1}
        text = format_structural_diff(diff)
        assert "first divergence" in text
        assert "absent" in text

    def test_count_deltas_only_differing_kinds(self):
        a = _chain_trace()
        b = a + [_event(9.0, 10, EventKind.ECHO, host="h0")]
        diff = structural_diff(a, b)
        assert set(diff["count_deltas"]) == {EventKind.ECHO}

    def test_modulo_applies_a_move_to_a_and_renumbers(self):
        a = _chain_trace()
        b = [_event(e.time, seq, e.kind, **e.data) for seq, e in enumerate(
            e for e in a if e.kind != EventKind.SCHEDULE_DECISION)]
        assert not structural_diff(a, b)["identical"]

        def drop(events):
            return [e for e in events if e.kind != EventKind.SCHEDULE_DECISION]

        diff = structural_diff(a, b, modulo=drop)
        assert diff["identical"]
        assert "identical" in format_structural_diff(diff)
        # the move applies to ``a`` only
        assert not structural_diff(b, a, modulo=drop)["identical"]


def _report(time, host, load, memory=256):
    return TraceEvent(time=time, seq=0, kind=EventKind.MONITOR_REPORT,
                      source=f"monitor:{host}",
                      data={"host": host, "load": load,
                            "available_memory_mb": memory})


def _verdict(time, host, kind):
    return TraceEvent(time=time, seq=0, kind=kind, source="gm:g0",
                      data={"host": host})


def _manager(time, kind, group="g0"):
    return TraceEvent(time=time, seq=0, kind=kind, source=f"gm:{group}",
                      data={"role": "group_manager", "deputy": None})


class TestElideRepeatedReports:
    """The monitor's declared move (DESIGN §13.9), on hand-made traces."""

    SUPPRESS, FORWARD = EventKind.WORKLOAD_SUPPRESS, EventKind.WORKLOAD_FORWARD

    def test_a_suppressed_repeat_and_its_suppress_go(self):
        events = [
            _report(0.0, "h0", 0.0), _verdict(0.5, "h0", self.FORWARD),
            _report(2.0, "h0", 0.0), _verdict(2.5, "h0", self.SUPPRESS),
            _report(4.0, "h0", 1.0), _verdict(4.5, "h0", self.FORWARD),
        ]
        assert elide_repeated_reports(events) == events[:2] + events[4:]

    def test_a_changed_report_stays_even_when_suppressed(self):
        events = [
            _report(0.0, "h0", 0.0), _verdict(0.5, "h0", self.FORWARD),
            _report(2.0, "h0", 0.0, memory=128),
            _verdict(2.5, "h0", self.SUPPRESS),
        ]
        assert elide_repeated_reports(events) == events

    @pytest.mark.parametrize("reset", [EventKind.MANAGER_RECOVER,
                                       EventKind.FAILOVER])
    def test_a_repeat_after_a_reset_stays_answered_or_not(self, reset):
        events = [
            _report(0.0, "h0", 0.0), _verdict(0.5, "h0", self.FORWARD),
            _manager(1.0, reset),
            _report(2.0, "h0", 0.0), _verdict(2.5, "h0", self.FORWARD),
            _manager(3.0, reset),
            _report(4.0, "h0", 0.0),   # then the manager crashed
        ]
        assert elide_repeated_reports(events) == events

    def test_a_reset_in_the_window_keeps_the_forward_only(self):
        # the fallback: elided at the tick, forwarded at delivery
        events = [
            _report(0.0, "h0", 0.0), _verdict(0.5, "h0", self.FORWARD),
            _report(2.0, "h0", 0.0), _manager(2.2, EventKind.MANAGER_RECOVER),
            _verdict(2.5, "h0", self.FORWARD),
        ]
        assert elide_repeated_reports(events) == events[:2] + events[3:]

    def test_a_reset_of_another_group_or_a_departure(self):
        depart = TraceEvent(time=1.0, seq=0, kind=EventKind.HOST_DEPART,
                            source="membership:s0", data={"host": "h0"})
        events = [
            _report(0.0, "h0", 0.0), _verdict(0.5, "h0", self.FORWARD),
            _manager(1.0, EventKind.FAILOVER, group="g1"),
            _report(2.0, "h0", 0.0), _verdict(2.5, "h0", self.SUPPRESS),
            depart, _report(3.0, "h0", 0.0), _verdict(3.5, "h0", self.FORWARD),
        ]
        assert elide_repeated_reports(events) == events[:3] + events[5:]

    def test_a_repeat_nobody_answered_goes(self):
        # dropped by a manager that crashed in the window, or still in
        # flight at the end
        events = [
            _report(0.0, "h0", 0.0), _verdict(0.5, "h0", self.FORWARD),
            _report(2.0, "h0", 0.0),
            _report(2.0, "h1", 3.0), _verdict(2.5, "h1", self.FORWARD),
            _report(4.0, "h0", 0.0),
        ]
        assert elide_repeated_reports(events) == events[:2] + events[3:5]

    def test_hosts_are_paired_separately(self):
        events = [
            _report(0.0, "h0", 0.0), _report(0.0, "h1", 0.0),
            _verdict(0.5, "h0", self.FORWARD), _verdict(0.5, "h1", self.FORWARD),
            _report(2.0, "h0", 0.1), _report(2.0, "h1", 0.0),
            _verdict(2.5, "h1", self.SUPPRESS), _verdict(2.5, "h0", self.SUPPRESS),
        ]
        assert elide_repeated_reports(events) == (
            events[:5] + [events[7]])


def _echo(time, host, responded=True, group="g0", **extra):
    return TraceEvent(time=time, seq=0, kind=EventKind.ECHO,
                      source=f"gm:{group}",
                      data={"host": host, "responded": responded, **extra})


def _membership(time, kind, host):
    return TraceEvent(time=time, seq=0, kind=kind, source="membership:s0",
                      data={"host": host})


class TestElideQuietEchoes:
    """The count detector's declared move (DESIGN §13.13)."""

    def test_an_answer_after_an_answer_goes(self):
        events = [_echo(5.0, "h0"), _echo(10.0, "h0"), _echo(15.0, "h0", False),
                  _echo(20.0, "h0"), _echo(25.0, "h0")]
        assert elide_quiet_echoes(events) == events[:1] + events[2:4]

    def test_hosts_and_managers_are_paired_separately(self):
        events = [_echo(5.0, "h0"), _echo(5.0, "h1", False),
                  _echo(10.0, "h0", group="g1"), _echo(10.0, "h1"),
                  _echo(15.0, "h0"), _echo(15.0, "h0", group="g1")]
        assert elide_quiet_echoes(events) == events[:4]

    @pytest.mark.parametrize("reset", [EventKind.MANAGER_RECOVER,
                                       EventKind.FAILOVER])
    def test_a_manager_restart_keeps_its_next_echoes(self, reset):
        events = [_echo(5.0, "h0"), _echo(5.0, "h0", group="g1"),
                  _manager(7.0, reset), _echo(10.0, "h0"),
                  _echo(10.0, "h0", group="g1")]
        assert elide_quiet_echoes(events) == events[:4]

    @pytest.mark.parametrize("kind", [EventKind.HOST_JOIN,
                                      EventKind.HOST_REJOIN,
                                      EventKind.HOST_DEPART])
    def test_a_membership_edit_keeps_the_hosts_next_echo(self, kind):
        events = [_echo(5.0, "h0"), _echo(5.0, "h1"),
                  _membership(7.0, kind, "h0"),
                  _echo(10.0, "h0"), _echo(10.0, "h1")]
        assert elide_quiet_echoes(events) == events[:4]

    def test_a_phi_echo_is_kept(self):
        events = [_echo(5.0, "h0", rtt_s=0.001, phi=0.4),
                  _echo(10.0, "h0", rtt_s=0.001, phi=0.4)]
        assert elide_quiet_echoes(events) == events

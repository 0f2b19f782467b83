"""Trace-analysis toolkit: derived views over PR 1's structured traces.

The trace stream records *what happened*; this module answers the
questions benchmarks and humans actually ask of a run:

* :func:`critical_path` — the longest dependency chain through the
  observed task executions (edges reconstructed from ``data_transfer``
  events), in measured time;
* :func:`host_timelines` — per-host busy/idle intervals and the
  utilization fraction over the run's execution window;
* :func:`schedule_lag` — per-task delay between the scheduler's
  ``schedule_decision`` and the eventual ``task_start`` (allocation
  distribution + channel setup + input waiting);
* :func:`analyze_trace` / :func:`format_analysis` — the one-call
  summary behind ``python -m repro analyze <trace>``;
* :func:`structural_diff` / :func:`format_structural_diff` — compare
  two runs: first divergent event and per-kind count deltas, the
  workflow for debugging a scheduling change
  (``python -m repro analyze <a> <b>``); ``modulo=`` first applies a
  declared move to ``a``, such as :func:`elide_repeated_reports` or
  :func:`elide_quiet_echoes`.

Everything consumes a plain event sequence (a :class:`Tracer` works
too), so saved JSONL traces round-trip through
:func:`repro.trace.serialize.read_jsonl` unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.tables import format_table
from repro.metrics.trace_summary import (
    event_counts,
    format_phase_timings,
    phase_timings,
)
from repro.obs.attribution import merge_intervals
from repro.trace.events import EventKind, TraceEvent
from repro.trace.serialize import TraceLike, events_of, event_to_json

__all__ = [
    "analyze_trace",
    "critical_path",
    "elide_quiet_echoes",
    "elide_repeated_reports",
    "format_analysis",
    "format_structural_diff",
    "host_timelines",
    "schedule_lag",
    "structural_diff",
]

def _task_intervals(events: Sequence[TraceEvent]) -> Dict[str, Dict[str, Any]]:
    """task id -> {start, finish, duration, hosts} from task_start/finish.

    A rescheduled task re-enters via the same record (latest start wins);
    tasks still running at capture time have no finish and are skipped.
    """
    intervals: Dict[str, Dict[str, Any]] = {}
    for event in events:
        task = event.data.get("task")
        if task is None:
            continue
        if event.kind == EventKind.TASK_START:
            intervals[str(task)] = {
                "start": event.time,
                "finish": None,
                "hosts": [str(h) for h in event.data.get("hosts", ())],
            }
        elif event.kind == EventKind.TASK_FINISH:
            record = intervals.get(str(task))
            if record is None:
                record = intervals[str(task)] = {
                    "start": event.time,
                    "finish": None,
                    "hosts": [str(h) for h in event.data.get("hosts", ())],
                }
            record["finish"] = event.time
    return {
        task: {**rec, "duration": rec["finish"] - rec["start"]}
        for task, rec in intervals.items()
        if rec["finish"] is not None
    }


def _task_edges(events: Sequence[TraceEvent]) -> List[Tuple[str, str]]:
    """Dependency edges observed as dataflow transfers (src task, dst task)."""
    edges = []
    seen = set()
    for event in events:
        if event.kind != EventKind.DATA_TRANSFER:
            continue
        edge = event.data.get("edge")
        if not edge or len(edge) != 2:
            continue
        pair = (str(edge[0]), str(edge[1]))
        if pair not in seen:
            seen.add(pair)
            edges.append(pair)
    return edges


def critical_path(trace: TraceLike) -> Dict[str, Any]:
    """Longest measured-time dependency chain through the executed tasks.

    Returns ``{"length_s", "tasks", "path"}`` — the chain's total
    measured time, the number of tasks executed, and the task ids along
    the chain (empty when the trace has no completed tasks).
    """
    events = events_of(trace)
    intervals = _task_intervals(events)
    if not intervals:
        return {"length_s": 0.0, "tasks": 0, "path": []}

    children: Dict[str, List[str]] = {}
    parents: Dict[str, List[str]] = {t: [] for t in intervals}
    for src, dst in _task_edges(events):
        if src in intervals and dst in intervals:
            children.setdefault(src, []).append(dst)
            parents[dst].append(src)

    # longest path by accumulated duration, walking a topological order
    # (the AFG is acyclic; observed edges are a subgraph of it)
    order: List[str] = [t for t in sorted(intervals) if not parents[t]]
    remaining = {t: len(p) for t, p in parents.items()}
    queue = deque(order)
    while queue:
        current = queue.popleft()
        for child in sorted(children.get(current, ())):
            remaining[child] -= 1
            if remaining[child] == 0:
                order.append(child)
                queue.append(child)

    best_cost: Dict[str, float] = {}
    best_parent: Dict[str, Optional[str]] = {}
    for task in order:
        # every parent precedes its child in ``order``; ties on cost go
        # to the larger parent id
        cost, parent = max(
            ((best_cost[p], p) for p in parents[task]), default=(0.0, None)
        )
        best_cost[task] = cost + intervals[task]["duration"]
        best_parent[task] = parent

    if not best_cost:
        return {"length_s": 0.0, "tasks": len(intervals), "path": []}
    tail = max(sorted(best_cost), key=lambda t: best_cost[t])
    path: List[str] = []
    cursor: Optional[str] = tail
    while cursor is not None:
        path.append(cursor)
        cursor = best_parent[cursor]
    path.reverse()
    return {
        "length_s": best_cost[tail],
        "tasks": len(intervals),
        "path": path,
    }


def host_timelines(trace: TraceLike) -> Dict[str, Dict[str, Any]]:
    """Per-host busy intervals + utilization over the execution window.

    The window runs from the first ``task_start`` to the last
    ``task_finish``; a host's busy time is the union of the execution
    intervals of tasks placed on it (overlaps merged), idle time is the
    window's remainder.
    """
    intervals = _task_intervals(events_of(trace))
    if not intervals:
        return {}
    window_start = min(r["start"] for r in intervals.values())
    window_end = max(r["finish"] for r in intervals.values())
    window = max(window_end - window_start, 0.0)

    raw: Dict[str, List[Tuple[float, float]]] = {}
    for record in intervals.values():
        for host in record["hosts"]:
            raw.setdefault(host, []).append((record["start"], record["finish"]))

    timelines: Dict[str, Dict[str, Any]] = {}
    for host in sorted(raw):
        merged = merge_intervals(raw[host])
        busy = sum(finish - start for start, finish in merged)
        timelines[host] = {
            "busy_s": busy,
            "idle_s": max(window - busy, 0.0),
            "utilization": (busy / window) if window > 0 else 0.0,
            "intervals": merged,
            "tasks": sum(
                1 for r in intervals.values() if host in r["hosts"]
            ),
        }
    return timelines


def schedule_lag(trace: TraceLike) -> Dict[str, Any]:
    """Schedule-to-execute lag: ``schedule_decision`` -> ``task_start``.

    Returns ``{"per_task": {task: lag_s}, "mean_s", "max_s", "count"}``;
    tasks that never started (or were scheduled in a different trace)
    are simply absent.
    """
    events = events_of(trace)
    decided_at: Dict[str, float] = {}
    lags: Dict[str, float] = {}
    for event in events:
        task = event.data.get("task")
        if task is None:
            continue
        task = str(task)
        if event.kind == EventKind.SCHEDULE_DECISION:
            decided_at.setdefault(task, event.time)
        elif event.kind == EventKind.TASK_START and task in decided_at:
            lags.setdefault(task, event.time - decided_at[task])
    values = list(lags.values())
    return {
        "per_task": lags,
        "mean_s": (sum(values) / len(values)) if values else 0.0,
        "max_s": max(values, default=0.0),
        "count": len(values),
    }


def analyze_trace(trace: TraceLike) -> Dict[str, Any]:
    """The full single-trace analysis: one dict, JSON-safe."""
    events = events_of(trace)
    times = [e.time for e in events]
    return {
        "events": len(events),
        "time_span_s": (max(times) - min(times)) if times else 0.0,
        "event_counts": event_counts(events),
        "critical_path": critical_path(events),
        "host_timelines": host_timelines(events),
        "schedule_lag": schedule_lag(events),
        "phase_timings": phase_timings(events),
    }


def format_analysis(trace: TraceLike, title: str = "trace analysis") -> str:
    """Render :func:`analyze_trace` for terminals (the CLI's view)."""
    events = events_of(trace)
    report = analyze_trace(events)
    lines = [
        f"{title} — {report['events']} events "
        f"over {report['time_span_s']:.3f}s"
    ]

    cp = report["critical_path"]
    if cp["path"]:
        lines.append(
            f"critical path: {cp['length_s']:.3f}s through "
            f"{len(cp['path'])} of {cp['tasks']} tasks: "
            + " -> ".join(cp["path"])
        )
    else:
        lines.append("critical path: no completed tasks in trace")

    lag = report["schedule_lag"]
    if lag["count"]:
        lines.append(
            f"schedule->start lag: mean {lag['mean_s']:.4f}s  "
            f"max {lag['max_s']:.4f}s  over {lag['count']} tasks"
        )

    timelines = report["host_timelines"]
    if timelines:
        rows = [
            {
                "host": host,
                "tasks": tl["tasks"],
                "busy_s": round(tl["busy_s"], 4),
                "idle_s": round(tl["idle_s"], 4),
                "util": round(tl["utilization"], 4),
            }
            for host, tl in timelines.items()
        ]
        lines.append("")
        lines.append(format_table(rows, title="per-host utilization"))

    if report["phase_timings"]:
        lines.append("")
        lines.append(format_phase_timings(report["phase_timings"]))
    return "\n".join(lines)


# -- structural diff --------------------------------------------------------


def elide_repeated_reports(events: List[TraceEvent]) -> List[TraceEvent]:
    """The monitor's elision as a move on a trace taken without it
    (DESIGN §13.9): drop each ``monitor_report`` that repeats its host's
    previous ``(load, available_memory_mb)`` while the host's manager
    holds a forwarded load for it — the manager's verdict at the tick is
    then "suppress" — and the ``workload_suppress`` that answers it.  A
    manager holds a host's load from its ``workload_forward`` until its
    ``manager_recover`` / ``failover`` or the host's ``host_depart``.
    For a run with ``change_threshold > 0``; at 0 nothing is elided."""
    previous, holder, elided, kept = {}, {}, set(), []
    for event in events:
        host, kind = event.data.get("host"), event.kind
        if kind == EventKind.MONITOR_REPORT:
            reading = (event.data["load"], event.data["available_memory_mb"])
            repeat = previous.get(host) == reading and host in holder
            previous[host] = reading
            elided.discard(host)
            if repeat:
                elided.add(host)
                continue
        elif kind == EventKind.WORKLOAD_SUPPRESS and host in elided:
            elided.discard(host)
            continue
        elif kind == EventKind.WORKLOAD_FORWARD:
            holder[host] = event.source
            elided.discard(host)
        elif kind in (EventKind.MANAGER_RECOVER, EventKind.FAILOVER):
            holder = {h: s for h, s in holder.items() if s != event.source}
        elif kind == EventKind.HOST_DEPART:
            holder.pop(host, None)
        kept.append(event)
    return kept


def elide_quiet_echoes(events: List[TraceEvent]) -> List[TraceEvent]:
    """The count detector's quiet echo as a move on a trace taken
    without it (DESIGN §13.13): drop an answered ``{host, responded}``
    ``echo`` when its manager's previous echo of the host answered.  A
    manager's history restarts at its ``manager_recover`` / ``failover``,
    a host's at its ``host_join`` / ``host_rejoin`` / ``host_depart``."""
    answered, kept = {}, []
    for event in events:
        kind, data = event.kind, event.data
        if kind == EventKind.ECHO:
            heard = answered.setdefault(event.source, set())
            if data["responded"] and data["host"] in heard and len(data) == 2:
                continue
            (heard.add if data["responded"] else heard.discard)(data["host"])
        elif kind in (EventKind.MANAGER_RECOVER, EventKind.FAILOVER):
            answered.pop(event.source, None)
        elif kind in (EventKind.HOST_JOIN, EventKind.HOST_REJOIN,
                      EventKind.HOST_DEPART):
            for heard in answered.values():
                heard.discard(data["host"])
        kept.append(event)
    return kept


#: the declared moves ``repro analyze --modulo`` accepts by name
MOVES = {"elide_quiet_echoes": elide_quiet_echoes,
         "elide_repeated_reports": elide_repeated_reports}


def structural_diff(a: TraceLike, b: TraceLike,
                    modulo: Optional[Callable] = None) -> Dict[str, Any]:
    """Structural comparison of two traces.

    Returns::

        {
          "identical": bool,
          "lengths": (len_a, len_b),
          "first_divergence": None | {"index", "a", "b"},
          "count_deltas": {kind: {"a": n, "b": m}},   # differing kinds only
        }

    ``first_divergence`` carries the two events (dict form; ``None`` on
    the shorter side when one trace is a prefix of the other).  With
    ``modulo``, ``a`` is compared as that move leaves it, ``seq``
    renumbered: "``b`` is ``a`` after the declared change".
    """
    events_a, events_b = events_of(a), events_of(b)
    if modulo is not None:
        seq0 = events_a[0].seq if events_a else 0
        events_a = [TraceEvent(e.time, seq0 + i, e.kind, e.source, e.data)
                    for i, e in enumerate(modulo(events_a))]
    first: Optional[Dict[str, Any]] = None
    for index, (ea, eb) in enumerate(zip(events_a, events_b)):
        if event_to_json(ea) != event_to_json(eb):
            first = {"index": index, "a": ea.to_dict(), "b": eb.to_dict()}
            break
    if first is None and len(events_a) != len(events_b):
        index = min(len(events_a), len(events_b))
        longer = events_a if len(events_a) > len(events_b) else events_b
        first = {
            "index": index,
            "a": events_a[index].to_dict() if len(events_a) > index else None,
            "b": events_b[index].to_dict() if len(events_b) > index else None,
        }

    counts_a, counts_b = event_counts(events_a), event_counts(events_b)
    deltas = {
        kind: {"a": counts_a.get(kind, 0), "b": counts_b.get(kind, 0)}
        for kind in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(kind, 0) != counts_b.get(kind, 0)
    }
    return {
        "identical": first is None,
        "lengths": (len(events_a), len(events_b)),
        "first_divergence": first,
        "count_deltas": deltas,
    }


def _render_event(payload: Optional[Dict[str, Any]]) -> str:
    if payload is None:
        return "(absent — trace ended)"
    return (
        f"t={payload['time']:.6g} #{payload['seq']} {payload['kind']} "
        f"{payload['source']} {payload['data']}"
    )


def format_structural_diff(report: Dict) -> str:
    """Render a :func:`structural_diff` report for terminals."""
    len_a, len_b = report["lengths"]
    if report["identical"]:
        return f"traces are identical ({len_a} events)"
    lines = [f"traces differ: a has {len_a} events, b has {len_b}"]
    divergence = report["first_divergence"]
    if divergence is not None:
        lines.append(f"first divergence at event {divergence['index']}:")
        lines.append(f"  a: {_render_event(divergence['a'])}")
        lines.append(f"  b: {_render_event(divergence['b'])}")
    if report["count_deltas"]:
        rows = [
            {
                "event": kind,
                "a": entry["a"],
                "b": entry["b"],
                "delta": entry["b"] - entry["a"],
            }
            for kind, entry in report["count_deltas"].items()
        ]
        lines.append("")
        lines.append(format_table(rows, title="event-count deltas"))
    return "\n".join(lines)

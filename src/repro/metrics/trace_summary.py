"""Aggregation over structured traces: counts, phase timings, summary.

A trace is the raw substrate; this module turns it into the two views
benchmarks and the CLI actually read:

* **event counts** by kind — the trace-side mirror of
  :class:`~repro.runtime.stats.RuntimeStats`;
* **phase timings** from span events — how much virtual time went to
  scheduling vs. allocation vs. channel setup vs. execution, so
  benches can attribute end-to-end cost per phase.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.tables import format_table
from repro.trace.events import EventKind
from repro.trace.serialize import TraceLike, events_of

__all__ = [
    "event_counts",
    "format_trace_summary",
    "phase_timings",
]

def event_counts(trace: TraceLike) -> Dict[str, int]:
    """How many events of each kind the trace holds (sorted by kind)."""
    counts: Dict[str, int] = {}
    for event in events_of(trace):
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return dict(sorted(counts.items()))


def phase_timings(trace: TraceLike) -> Dict[str, Dict[str, float]]:
    """Per-span-name aggregate timings from span events.

    Returns ``{span_name: {"count": n, "total_s": sum, "max_s": max,
    "unclosed": k}}``.  Span events need not be balanced: begin/end
    pairs are matched by ``span_id``, nested spans of the same name
    aggregate independently, a ``span_begin`` with no matching end is
    reported in ``unclosed`` (count/total cover completed spans only),
    and a stray ``span_end`` still contributes its measured duration.
    """
    result: Dict[str, Dict[str, float]] = {}

    def agg_of(name: str) -> Dict[str, float]:
        return result.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0, "unclosed": 0}
        )

    #: open span_id -> span name (for begin/end pairing)
    open_spans: Dict[object, str] = {}
    for event in events_of(trace):
        if event.kind == EventKind.SPAN_BEGIN:
            name = str(event.data.get("span", ""))
            agg_of(name)["unclosed"] += 1
            span_id = event.data.get("span_id")
            if span_id is not None:
                open_spans[span_id] = name
        elif event.kind == EventKind.SPAN_END:
            name = str(event.data.get("span", ""))
            duration = float(event.data.get("duration", 0.0))
            span_id = event.data.get("span_id")
            agg = agg_of(open_spans.pop(span_id, name))
            if agg["unclosed"] > 0:
                agg["unclosed"] -= 1
            agg["count"] += 1
            agg["total_s"] += duration
            agg["max_s"] = max(agg["max_s"], duration)
    return dict(sorted(result.items()))


def format_trace_summary(trace: TraceLike, title: str = "trace summary") -> str:
    """Render the counts + phase-timing tables (the CLI's ``--trace`` view)."""
    events = events_of(trace)
    counts = event_counts(events)
    count_rows = [{"event": kind, "count": n} for kind, n in counts.items()]
    sections = [
        format_table(count_rows, title=f"{title} — {len(events)} events"),
    ]
    # empty phases (no completed span, nothing left open — e.g. monitor
    # phases of a run with monitoring off) are suppressed entirely
    timing_rows = [
        {
            "phase": name,
            "count": int(agg["count"]),
            "total_s": round(agg["total_s"], 4),
            "max_s": round(agg["max_s"], 4),
            "unclosed": int(agg["unclosed"]),
        }
        for name, agg in phase_timings(events).items()
        if agg["count"] or agg["unclosed"]
    ]
    if timing_rows:
        sections.append(format_table(timing_rows, title="phase timings"))
    return "\n\n".join(sections)

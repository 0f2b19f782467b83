"""Aggregation over structured traces: counts, phase timings, summary.

A trace is the raw substrate; this module turns it into the two views
benchmarks and the CLI actually read:

* **event counts** by kind — the trace-side mirror of
  :class:`~repro.runtime.stats.RuntimeStats`;
* **phase timings** per causal-span kind — how much virtual time went
  to scheduling vs. allocation vs. channel setup vs. execution, so
  benches can attribute end-to-end cost per phase.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.tables import format_table
from repro.obs.attribution import build_forest
from repro.trace.serialize import TraceLike, events_of

__all__ = [
    "event_counts",
    "format_phase_timings",
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
    """Per-span-kind aggregate timings: a fold over the span forest.

    Returns ``{kind: {"count": n, "total_s": sum, "max_s": max,
    "unclosed": k}}``.  ``count`` / ``total_s`` / ``max_s`` cover the
    closed spans; ``unclosed`` counts the orphan-marked ones and those
    still open at trace end.  Pairing is the forest's, by ``span_id``:
    nested spans of one kind aggregate independently, and a close
    without an open contributes nothing (it is an I9 violation).
    """
    result: Dict[str, Dict[str, float]] = {}
    for root in build_forest(events_of(trace)):
        for node in root.walk():
            agg = result.setdefault(
                node.kind,
                {"count": 0, "total_s": 0.0, "max_s": 0.0, "unclosed": 0},
            )
            if node.orphaned or node.unclosed:
                agg["unclosed"] += 1
            else:
                agg["count"] += 1
                agg["total_s"] += node.duration
                agg["max_s"] = max(agg["max_s"], node.duration)
    return dict(sorted(result.items()))


def format_trace_summary(trace: TraceLike, title: str = "trace summary") -> str:
    """Render the counts + phase-timing tables (the CLI's ``--trace`` view)."""
    events = events_of(trace)
    counts = event_counts(events)
    count_rows = [{"event": kind, "count": n} for kind, n in counts.items()]
    sections = [
        format_table(count_rows, title=f"{title} — {len(events)} events"),
    ]
    timings = phase_timings(events)
    if timings:
        sections.append(format_phase_timings(timings))
    return "\n\n".join(sections)


def format_phase_timings(timings: Dict[str, Dict[str, float]]) -> str:
    """The phase-timing table of :func:`phase_timings`' result."""
    rows = [
        {
            "phase": name,
            "count": int(agg["count"]),
            "total_s": round(agg["total_s"], 4),
            "max_s": round(agg["max_s"], 4),
            "unclosed": int(agg["unclosed"]),
        }
        for name, agg in timings.items()
    ]
    return format_table(rows, title="phase timings")

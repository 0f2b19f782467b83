"""Virtual-clock sampling profile of the runtime hot paths.

Turns a span trace into a **folded-stack** profile: one line per
distinct span ancestry (frames joined by ``;``) with its total *self
time* — span duration minus the union of its children's intervals — in
integer virtual microseconds.  The format is the classic collapsed
stack format consumed by flamegraph tooling and speedscope's importer,
so ``repro explain --profile out.folded`` drops straight into
https://speedscope.app.

Frames are stable, human-meaningful names rather than span ids
(``app:mapreduce;task:map-3;execute``), so identical work on different
runs aggregates to identical lines; the output is sorted and therefore
deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.attribution import SpanNode, build_forest, merge_intervals
from repro.obs.spans import SpanKind
from repro.trace.events import TraceEvent

__all__ = ["folded_stacks", "format_folded", "self_time"]


def _frame(node: SpanNode) -> str:
    """Aggregation-friendly frame name for one span."""
    if node.kind == SpanKind.APP:
        return f"app:{node.app}" if node.app else "app:?"
    if node.kind == SpanKind.TASK:
        return f"task:{node.attrs.get('task', '?')}"
    if node.kind == SpanKind.RPC:
        return f"rpc:{node.attrs.get('label', '?')}"
    return node.kind


def self_time(node: SpanNode) -> float:
    """Span duration not covered by any child span (clamped to the span)."""
    window = (node.open_time, node.end)
    child_intervals = [
        (max(c.open_time, window[0]), min(c.end, window[1]))
        for c in node.children
        if min(c.end, window[1]) > max(c.open_time, window[0])
    ]
    covered = sum(end - start for start, end in merge_intervals(child_intervals))
    return max(0.0, node.duration - covered)


def folded_stacks(
    events: Iterable[TraceEvent], prefix: str = ""
) -> Dict[str, int]:
    """Aggregate folded stacks: ``;``-joined frames -> self microseconds.

    Zero-self-time stacks are dropped.  ``prefix`` (e.g. the benchmark
    scenario name) becomes the root frame when given.
    """
    stacks: Dict[str, int] = {}

    def visit(node: SpanNode, frames: List[str]) -> None:
        frames = frames + [_frame(node)]
        micros = int(round(self_time(node) * 1e6))
        if micros > 0:
            key = ";".join(frames)
            stacks[key] = stacks.get(key, 0) + micros
        for child in node.children:
            visit(child, frames)

    base = [prefix] if prefix else []
    for root in build_forest(events):
        visit(root, base)
    return stacks


def format_folded(stacks: Dict[str, int]) -> str:
    """Render to the collapsed-stack text format, sorted for determinism."""
    return "".join(
        f"{key} {value}\n" for key, value in sorted(stacks.items())
    )

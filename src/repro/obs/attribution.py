"""Attribution: from a span trace to "why was this application slow?".

Rebuilds the span forest from the paired ``span_open`` / ``span_close``
(/ ``span_orphan``) trace events, then answers three questions per
application:

* **Wait-state breakdown** — every instant of the application's wall
  time is assigned to exactly one category (queue, scheduling, staging,
  execution, retry, speculation, or other) by an elementary-interval
  sweep over the root window: the category intervals of every
  descendant span are clamped to the window, boundaries partition it
  into elementary segments, and each segment takes the highest-priority
  category active on it.  The partition is exact by construction, so
  the per-category sums always add up to the window's wall time — the
  report records the residual and the CLI enforces it at 1e-6.
* **Critical path** — the chain of spans that determined the finish
  time: from the root, repeatedly descend into the child that closed
  last (ties broken by smaller span id, deterministically).
* **Top-k** — slowest tasks by task-span duration, and busiest hosts by
  summed execute-span time.

Everything is computed on the virtual clock from the trace alone, with
no RNG and no wall-clock reads, and the report is canonical JSON
(sorted keys, 9-decimal rounding) hashed with sha256 — two runs of the
same seed produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.hashing import canonical_json
from repro.obs.spans import SpanKind
from repro.trace.events import EventKind, TraceEvent

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "SpanNode",
    "build_forest",
    "explain",
    "merge_intervals",
    "report_hash",
    "report_to_json",
    "span_integrity",
]

#: version stamp of the explain report layout
#: (v3 adds the "repair" wait-state: data-integrity refetch + lineage
#: regeneration episodes, DESIGN §16; v4 adds the "drain" wait-state:
#: rescheduling forced by graceful host drains / membership changes,
#: DESIGN §17).  An application whose trace holds a Fig. 2 round also
#: carries "scheduling_round" — an optional key, so not a new version.
ATTRIBUTION_SCHEMA_VERSION = 4

#: span kind -> wait-state category; None marks container spans whose
#: time is attributed through their children
CATEGORY: Dict[str, Optional[str]] = {
    SpanKind.APP: None,
    SpanKind.TASK: None,
    SpanKind.COLLECT: None,
    SpanKind.RESUME: None,
    SpanKind.FAILOVER: None,
    SpanKind.ADMISSION_WAIT: "queue",
    SpanKind.SCHEDULE: "scheduling",
    SpanKind.BID_EXCHANGE: "scheduling",
    SpanKind.ALLOCATION: "scheduling",
    SpanKind.SM_FANOUT: "scheduling",
    SpanKind.CHANNEL_SETUP: "scheduling",
    SpanKind.RPC: "scheduling",
    SpanKind.RPC_ATTEMPT: "scheduling",
    SpanKind.RETRY_BACKOFF: "retry",
    SpanKind.RESCHEDULE: "retry",
    SpanKind.INPUT_WAIT: "staging",
    SpanKind.STAGE_IN: "staging",
    SpanKind.STAGE_OUT: "staging",
    SpanKind.EXECUTE: "execution",
    SpanKind.SPECULATE_BACKUP: "speculation",
    SpanKind.REPAIR: "repair",
    SpanKind.DRAIN: "drain",
}

#: when several categories are active on one elementary segment, the
#: highest-priority one owns it (earlier = higher).  Repair outranks
#: staging: while a corrupted delivery is being refetched/regenerated
#: the consumer's input wait is *caused* by the repair, and E-series
#: repair-overhead numbers read straight off this category.
PRIORITY: Tuple[str, ...] = (
    "execution", "repair", "drain", "staging", "retry", "speculation",
    "scheduling", "shed", "queue",
)

#: every category a breakdown reports, in canonical order
CATEGORIES: Tuple[str, ...] = PRIORITY + ("other",)

_RANK = {category: rank for rank, category in enumerate(PRIORITY)}

_SPAN_KINDS = frozenset(
    (EventKind.SPAN_OPEN, EventKind.SPAN_CLOSE, EventKind.SPAN_ORPHAN)
)


@dataclass
class SpanNode:
    """One reconstructed span."""

    span_id: int
    kind: str
    app: str
    parent_id: Optional[int]
    open_time: float
    close_time: Optional[float] = None
    status: str = ""
    orphaned: bool = False
    unclosed: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: the payload of the ``span_close`` event (the event's own dict,
    #: not a copy: read-only); empty while open, orphaned or unclosed
    close_attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.close_time if self.close_time is not None else self.open_time

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.open_time)

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def _pair(events: Iterable[TraceEvent]) -> Tuple[List[SpanNode], List[str]]:
    """The one span-pairing pass: the forest and the I9 violations.

    Spans are paired by ``span_id``.  A close or orphan ends the span
    only if it is still open; anything else — an open of a live or ended
    id, a close/orphan without an open or after one — is a violation,
    and so is a span still open at trace end, which is then closed at
    the trace's last event time and marked ``unclosed``.
    """
    nodes: Dict[int, SpanNode] = {}
    state: Dict[int, str] = {}  # span_id -> "open" | "closed" | "orphaned"
    violations: List[str] = []
    last_time = 0.0
    for event in events:
        if event.time > last_time:
            last_time = event.time
        if event.kind not in _SPAN_KINDS:
            continue
        data = event.data
        span_id = int(data["span_id"])
        prior = state.get(span_id)
        if event.kind == EventKind.SPAN_OPEN:
            if prior is not None:
                violations.append(
                    f"span {span_id} ({data.get('span', '?')}) opened twice"
                )
            state[span_id] = "open"
            parent_id = data.get("parent_id")
            nodes[span_id] = SpanNode(
                span_id=span_id,
                kind=str(data.get("span", "")),
                app=str(data.get("application", "")),
                parent_id=int(parent_id) if parent_id is not None else None,
                open_time=event.time,
                attrs={
                    k: v for k, v in data.items()
                    if k not in ("span", "span_id", "parent_id", "application")
                },
            )
            continue
        verb = "closed" if event.kind == EventKind.SPAN_CLOSE else "orphaned"
        if prior == "open":
            node = nodes[span_id]
            node.close_time = event.time
            if verb == "orphaned":
                node.orphaned = True
                node.status = str(data.get("reason", "orphaned"))
            else:
                node.status = str(data.get("status", "ok"))
                node.close_attrs = data
        else:
            kind = data.get("span", "?")
            violations.append(
                f"span {span_id} ({kind}) {verb} without an open"
                if prior is None else
                f"span {span_id} ({kind}) {verb} after already {prior}"
            )
        state[span_id] = verb
    roots: List[SpanNode] = []
    for span_id in sorted(nodes):
        node = nodes[span_id]
        if node.close_time is None:
            node.close_time = last_time
            node.unclosed = True
            node.status = "unclosed"
            violations.append(
                f"span {span_id} never closed and never orphan-marked"
            )
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.open_time, n.span_id))
    return roots, violations


def build_forest(events: Iterable[TraceEvent]) -> List[SpanNode]:
    """Span forest from a trace; unclosed spans are closed at trace end.

    Returns the root nodes (spans with no parent) in open order.
    Children are sorted by (open_time, span_id), so the forest is
    deterministic regardless of event interleaving.
    """
    return _pair(events)[0]


def span_integrity(events: Iterable[TraceEvent]) -> List[str]:
    """Span-pairing violations in a trace; empty list means clean.

    The chaos invariant I9: every ``span_open`` is matched by exactly
    one ``span_close`` *or* one explicit ``span_orphan``, never both,
    never more than one, and never a close/orphan without an open.
    """
    return _pair(events)[1]


def merge_intervals(
    intervals: Iterable[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """The union of ``(start, end)`` intervals as sorted disjoint runs.

    Runs that touch or overlap merge; the covered length is
    ``sum(end - start for start, end in runs)``, summed in run order.
    """
    runs: List[List[float]] = []
    for start, end in sorted(intervals):
        if runs and start <= runs[-1][1]:
            if end > runs[-1][1]:
                runs[-1][1] = end
        else:
            runs.append([start, end])
    return [(start, end) for start, end in runs]


# -- the wait-state sweep --------------------------------------------------

def _sweep(window: Tuple[float, float],
           intervals: List[Tuple[float, float, str]]) -> Dict[str, float]:
    """Exact partition of ``window`` over categories.

    ``intervals`` are (start, end, category); they are clamped to the
    window, boundaries split it into elementary segments, and each
    segment is charged to the highest-priority active category (or
    ``other`` when none is active).  The returned sums add up to
    exactly ``window[1] - window[0]`` up to float associativity.

    A boundary sweep: one pass over the intervals notes, at each
    boundary point, which priority ranks gain or lose an active
    interval there; one pass over the sorted boundaries keeps the
    running count per rank and charges each segment to the first rank
    whose count is non-zero.  A clamped interval covers a segment iff
    it starts at or before the segment's left end and ends after it
    (both ends are boundaries), which is what the running counts hold —
    so the segments, their order and every ``right - left`` added are
    those of testing each interval against each segment, at
    O(n log n) for the sort instead of O(n^2).
    """
    w0, w1 = window
    out = {c: 0.0 for c in CATEGORIES}
    if w1 <= w0:
        return out
    #: boundary point -> [(rank, +1 | -1)] taking effect there
    steps: Dict[float, List[Tuple[int, int]]] = {w0: [], w1: []}
    for start, end, category in intervals:
        start, end = max(start, w0), min(end, w1)
        if end <= start:
            continue
        rank = _RANK[category]
        steps.setdefault(start, []).append((rank, 1))
        steps.setdefault(end, []).append((rank, -1))
    active = [0] * len(PRIORITY)
    bounds = sorted(steps)
    for left, right in zip(bounds, bounds[1:]):
        for rank, step in steps[left]:
            active[rank] += step
        owner = next(
            (PRIORITY[rank] for rank, n in enumerate(active) if n), "other"
        )
        out[owner] += right - left
    return out


def _category_intervals(root: SpanNode) -> List[Tuple[float, float, str]]:
    intervals = []
    for node in root.walk():
        category = CATEGORY.get(node.kind)
        if (node.kind == SpanKind.ADMISSION_WAIT
                and node.status in ("shed", "expired")):
            # the wait ended in a shed, not an admission: that time was
            # spent being overloaded, not waiting for a slot
            category = "shed"
        if category is not None and node.end > node.open_time:
            intervals.append((node.open_time, node.end, category))
    return intervals


def _critical_path(root: SpanNode) -> List[Dict[str, Any]]:
    """The chain of spans that determined the root's finish time."""
    path = []
    node = root
    while True:
        path.append({
            "span": node.kind,
            "span_id": node.span_id,
            "task": node.attrs.get("task"),
            "open": node.open_time,
            "close": node.end,
            "duration_s": node.duration,
        })
        if not node.children:
            return path
        node = max(node.children, key=lambda n: (n.end, -n.span_id))


# -- the report ------------------------------------------------------------

def explain(events: Iterable[TraceEvent], top: int = 5) -> Dict[str, Any]:
    """The full attribution report for one trace.

    Per application: wall time (summed over its root windows — a
    checkpoint-restarted application has one window per incarnation),
    the wait-state breakdown, the span-level critical path of the last
    window, per-task breakdowns, and top-``top`` slow tasks.  Globally:
    top hosts by execute time and the span-integrity summary.
    """
    roots, integrity = _pair(events)
    orphaned = sum(node.orphaned for root in roots for node in root.walk())
    app_roots: Dict[str, List[SpanNode]] = {}
    for root in roots:
        if root.kind == SpanKind.APP:
            app_roots.setdefault(root.app, []).append(root)

    apps: Dict[str, Any] = {}
    host_execute: Dict[str, float] = {}
    for app, windows in sorted(app_roots.items()):
        breakdown = {c: 0.0 for c in CATEGORIES}
        wall = 0.0
        tasks: Dict[str, Any] = {}
        scheduling_round: Dict[str, Any] = {}
        for root in windows:
            wall += root.duration
            swept = _sweep(
                (root.open_time, root.end), _category_intervals(root)
            )
            for category, value in swept.items():
                breakdown[category] += value
            for node in root.walk():
                if node.kind == SpanKind.TASK:
                    task_id = str(node.attrs.get("task", node.span_id))
                    t_swept = _sweep(
                        (node.open_time, node.end),
                        _category_intervals(node),
                    )
                    tasks[task_id] = {
                        "wall_s": node.duration,
                        "site": node.attrs.get("site"),
                        "hosts": node.attrs.get("hosts"),
                        "status": node.status,
                        "breakdown": t_swept,
                    }
                elif (node.kind == SpanKind.SCHEDULE
                      and "sites_bid" in node.close_attrs):
                    # the latest round wins: a resubmission reschedules
                    scheduling_round = {
                        key: node.close_attrs[key]
                        for key in ("sites_answered", "sites_bid",
                                    "sites_used", "tasks")
                    }
                elif node.kind == SpanKind.EXECUTE:
                    host = node.attrs.get("host")
                    if host:
                        host_execute[str(host)] = (
                            host_execute.get(str(host), 0.0) + node.duration
                        )
        residual = wall - sum(breakdown.values())
        top_tasks = sorted(
            tasks.items(), key=lambda kv: (-kv[1]["wall_s"], kv[0])
        )[:top]
        apps[app] = {
            "windows": len(windows),
            "wall_s": wall,
            "breakdown": breakdown,
            "breakdown_residual_s": residual,
            "critical_path": _critical_path(windows[-1]),
            "tasks": tasks,
            "top_tasks": [
                {"task": task_id, "wall_s": info["wall_s"]}
                for task_id, info in top_tasks
            ],
        }
        if scheduling_round:
            apps[app]["scheduling_round"] = scheduling_round

    top_hosts = sorted(
        host_execute.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top]
    return {
        "schema_version": ATTRIBUTION_SCHEMA_VERSION,
        "apps": apps,
        "top_hosts": [
            {"host": host, "execute_s": value} for host, value in top_hosts
        ],
        "integrity": {
            "violations": integrity,
            "orphaned_spans": orphaned,
        },
    }


def _round_floats(value: Any, digits: int = 9) -> Any:
    if isinstance(value, float):
        rounded = round(value, digits)
        return 0.0 if rounded == 0 else rounded
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, digits) for v in value]
    return value


def report_to_json(report: Dict[str, Any]) -> str:
    """Canonical JSON: 9-decimal rounding, sorted keys, trailing newline."""
    return canonical_json(_round_floats(report)) + "\n"


def report_hash(report: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON — the explain determinism oracle."""
    return hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()

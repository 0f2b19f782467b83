"""The trace readers against the code they replaced, bit for bit.

``critical_path`` now computes each task's parents once and walks its
queue with a ``deque``; before, every task scanned every parent's child
list (O(V·E)) and the queue popped from the front of a list.  The three
private interval unions (``metrics/timeline``, ``obs/profile``,
``analysis.host_timelines``) are one ``merge_intervals``.  The replaced
bodies live here verbatim as oracles: the path, its tie-breaks and every
float must come out the same.
"""

import random
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.analysis import (
    _task_edges,
    _task_intervals,
    critical_path,
    host_timelines,
)
from repro.obs.attribution import merge_intervals
from repro.trace.events import EventKind, TraceEvent


def reference_critical_path(events) -> Dict[str, Any]:
    """``critical_path`` as it was: parents found by scanning children."""
    intervals = _task_intervals(events)
    if not intervals:
        return {"length_s": 0.0, "tasks": 0, "path": []}
    children: Dict[str, List[str]] = {}
    parents_count: Dict[str, int] = {t: 0 for t in intervals}
    for src, dst in _task_edges(events):
        if src in intervals and dst in intervals:
            children.setdefault(src, []).append(dst)
            parents_count[dst] += 1
    order: List[str] = [t for t in sorted(intervals) if parents_count[t] == 0]
    remaining = dict(parents_count)
    queue = list(order)
    while queue:
        current = queue.pop(0)
        for child in sorted(children.get(current, ())):
            remaining[child] -= 1
            if remaining[child] == 0:
                order.append(child)
                queue.append(child)
    best_cost: Dict[str, float] = {}
    best_parent: Dict[str, Optional[str]] = {}
    for task in order:
        incoming = [
            (best_cost[p], p)
            for p, kids in children.items()
            if task in kids and p in best_cost
        ]
        cost, parent = max(incoming, default=(0.0, None))
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
    return {"length_s": best_cost[tail], "tasks": len(intervals),
            "path": path}


def union_length_timeline(intervals):
    """``metrics/timeline._union_length`` (input already sorted)."""
    total = 0.0
    current_start, current_end = None, None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def union_length_profile(intervals):
    """``obs/profile._union_length``."""
    if not intervals:
        return 0.0
    covered = 0.0
    cur_start, cur_end = None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    covered += cur_end - cur_start
    return covered


def merged_host_timelines(raw):
    """``analysis.host_timelines``' inline merge."""
    merged: List[List[float]] = []
    for start, finish in sorted(raw):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], finish)
        else:
            merged.append([start, finish])
    return [tuple(iv) for iv in merged], sum(f - s for s, f in merged)


# -- critical path -------------------------------------------------------------

def _event(time, seq, kind, **data):
    return TraceEvent(time=time, seq=seq, kind=kind, source="test", data=data)


def dag_trace(widths: List[int], durations, edges_per_task: int,
              seed: int) -> List[TraceEvent]:
    """A layered DAG run as a trace: ``widths[i]`` tasks in layer ``i``,
    each fed by up to ``edges_per_task`` tasks of the layer before; a
    task's duration is ``durations(rng)``, so a small set of values
    makes equal-cost ties on every layer."""
    rng = random.Random(seed)
    events: List[TraceEvent] = []
    layers: List[List[str]] = []
    finish: Dict[str, float] = {}
    for depth, width in enumerate(widths):
        layer = [f"L{depth}-t{i:03d}" for i in range(width)]
        for task in layer:
            feeders = (rng.sample(layers[-1], min(edges_per_task,
                                                  len(layers[-1])))
                       if layers else [])
            start = max((finish[f] for f in feeders), default=0.0)
            for feeder in feeders:
                events.append(_event(finish[feeder], len(events),
                                     EventKind.DATA_TRANSFER,
                                     edge=[feeder, task], size_mb=1.0))
            finish[task] = start + durations(rng)
            events.append(_event(start, len(events), EventKind.TASK_START,
                                 task=task, hosts=[f"h{rng.randrange(8)}"]))
            events.append(_event(finish[task], len(events),
                                 EventKind.TASK_FINISH, task=task,
                                 hosts=[]))
        layers.append(layer)
    return events


def test_wide_dag_with_equal_cost_ties_matches_the_reference():
    # one source, 200 equal-cost tasks, one sink fed by all of them: the
    # sink's parent is a 200-way tie, broken towards the larger task id
    events = dag_trace([1, 200, 1], lambda rng: 1.0, edges_per_task=200,
                       seed=0)
    cp = critical_path(events)
    assert cp == reference_critical_path(events)
    assert cp["path"] == ["L0-t000", "L1-t199", "L2-t000"]
    assert cp["length_s"] == 3.0


def test_layered_dags_match_the_reference():
    for seed in range(20):
        rng = random.Random(seed)
        widths = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
        events = dag_trace(widths, lambda r: r.choice((0.5, 1.0, 1.5)),
                           edges_per_task=rng.randint(1, 4), seed=seed)
        assert critical_path(events) == reference_critical_path(events)


# -- interval unions -------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
intervals = st.lists(
    st.tuples(finite, finite).map(lambda p: (min(p), max(p))), max_size=30
)


@settings(max_examples=200, deadline=None)
@given(intervals)
def test_merge_intervals_reproduces_all_three_unions(raw):
    runs = merge_intervals(raw)
    covered = sum(end - start for start, end in runs)
    assert covered == union_length_timeline(sorted(raw))
    assert covered == union_length_profile(raw)
    assert (runs, covered) == merged_host_timelines(raw)


def test_host_timelines_intervals_are_the_merged_runs():
    raw = [(0.0, 2.0), (1.0, 3.0), (3.0, 4.0), (5.0, 6.0)]
    events = []
    for i, (start, finish) in enumerate(raw):
        events.append(_event(start, 2 * i, EventKind.TASK_START,
                             task=f"t{i}", hosts=["h0"]))
        events.append(_event(finish, 2 * i + 1, EventKind.TASK_FINISH,
                             task=f"t{i}", hosts=["h0"]))
    timeline = host_timelines(events)["h0"]
    assert timeline["intervals"] == [(0.0, 4.0), (5.0, 6.0)]
    assert timeline["busy_s"] == 5.0

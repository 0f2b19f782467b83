"""The boundary sweep against the quadratic loop it replaced.

``obs.attribution._sweep`` used to test every clamped interval against
every elementary segment.  That loop lives on here, verbatim, as the
reference: the sweep in ``src/`` must return an *equal dict with equal
floats* (``==``, never ``approx``) — same segments, same left-to-right
order, same ``right - left`` added to the same category — because the
report's floats feed ``report_hash``.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import CATEGORIES, PRIORITY, _sweep


# -- the reference: the sweep as it stood in obs/attribution.py --------------

def quadratic_sweep(window: Tuple[float, float],
                    intervals: List[Tuple[float, float, str]]) -> Dict[str, float]:
    w0, w1 = window
    out = {c: 0.0 for c in CATEGORIES}
    if w1 <= w0:
        return out
    clamped = []
    points = {w0, w1}
    for start, end, category in intervals:
        start, end = max(start, w0), min(end, w1)
        if end <= start:
            continue
        clamped.append((start, end, category))
        points.add(start)
        points.add(end)
    rank = {c: i for i, c in enumerate(PRIORITY)}
    bounds = sorted(points)
    for left, right in zip(bounds, bounds[1:]):
        mid_best: Optional[str] = None
        for start, end, category in clamped:
            if start <= left and end >= right:
                if mid_best is None or rank[category] < rank[mid_best]:
                    mid_best = category
        out[mid_best if mid_best is not None else "other"] += right - left
    return out


# -- strategies ---------------------------------------------------------------

#: a coarse grid makes duplicate boundaries, zero-length intervals and
#: intervals flush with the window common instead of measure-zero
grid = st.integers(min_value=-4, max_value=24).map(lambda k: k * 0.25)
#: arbitrary floats make the additions inexact, so a reordering shows
wild = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
times = st.one_of(grid, wild)
#: start/end unordered on purpose: inverted intervals must be dropped
intervals = st.lists(
    st.tuples(times, times, st.sampled_from(PRIORITY)), max_size=40
)
#: w1 <= w0 included
windows = st.tuples(times, times)


@settings(max_examples=400, deadline=None)
@given(windows, intervals)
def test_boundary_sweep_equals_quadratic_sweep(window, interval_list):
    assert _sweep(window, interval_list) == quadratic_sweep(
        window, interval_list
    )


@settings(max_examples=200, deadline=None)
@given(windows, intervals)
def test_partition_sums_to_the_window(window, interval_list):
    """The residual the report records: float associativity only."""
    w0, w1 = window
    out = _sweep(window, interval_list)
    assert list(out) == list(CATEGORIES)
    assert all(value >= 0.0 for value in out.values())
    if w1 <= w0:
        assert not any(out.values())
        return
    scale = max(abs(w0), abs(w1), 1.0)
    assert abs(sum(out.values()) - (w1 - w0)) <= 1e-9 * scale


# -- the named edge cases, pinned ---------------------------------------------

def both(window, interval_list):
    got = _sweep(window, interval_list)
    assert got == quadratic_sweep(window, interval_list)
    return got


def test_empty_input_is_all_other():
    out = both((1.0, 4.0), [])
    assert out["other"] == 3.0
    assert sum(out.values()) == 3.0


def test_empty_and_inverted_windows_are_all_zero():
    spans = [(0.0, 10.0, "execution")]
    assert not any(both((2.0, 2.0), spans).values())
    assert not any(both((5.0, 2.0), spans).values())


def test_zero_length_and_inverted_intervals_are_dropped():
    out = both((0.0, 4.0), [
        (1.0, 1.0, "execution"), (3.0, 2.0, "staging"), (1.0, 2.0, "queue"),
    ])
    assert out["queue"] == 1.0 and out["other"] == 3.0
    assert out["execution"] == 0.0 and out["staging"] == 0.0


def test_outside_and_straddling_intervals_are_clamped():
    out = both((10.0, 20.0), [
        (0.0, 5.0, "execution"),      # wholly before
        (25.0, 30.0, "execution"),    # wholly after
        (5.0, 12.0, "staging"),       # straddles the left edge
        (18.0, 99.0, "retry"),        # straddles the right edge
        (-1.0, 100.0, "queue"),       # covers the window
    ])
    assert out["staging"] == 2.0 and out["retry"] == 2.0
    assert out["queue"] == 6.0 and out["execution"] == 0.0


def test_duplicate_boundaries_and_every_category():
    """All nine categories stacked on shared boundaries: each unit
    segment goes to the highest-priority category still active."""
    spans = [
        (0.0, float(len(PRIORITY) - rank), category)
        for rank, category in enumerate(PRIORITY)
    ] + [(0.0, 1.0, "queue"), (0.0, 1.0, "queue")]
    out = both((0.0, float(len(PRIORITY)) + 1.0), spans)
    # rank r is active on [0, 9 - r): execution owns all of [0, 9)
    assert out["execution"] == 9.0 and out["other"] == 1.0
    # peel execution off and the next rank owns its own extent
    out = both((0.0, 10.0), spans[1:])
    assert out["repair"] == 8.0 and out["other"] == 2.0


def test_priority_handover_at_shared_boundary():
    out = both((0.0, 3.0), [
        (0.0, 2.0, "staging"), (1.0, 2.0, "execution"),
        (2.0, 3.0, "queue"), (2.0, 3.0, "scheduling"),
    ])
    assert out == {**{c: 0.0 for c in CATEGORIES},
                   "staging": 1.0, "execution": 1.0, "scheduling": 1.0}

"""Property tests for trace invariants (Hypothesis).

Two strategies: synthetic event streams (serialization must round-trip
anything JSON-safe), and real full-stack runs across random seeds (the
structural invariants every well-formed trace must satisfy).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import VDCE, Tracer
from repro.obs import span_integrity
from repro.runtime import RuntimeConfig
from repro.trace import EventKind, TraceEvent, events_to_jsonl, parse_jsonl
from repro.workloads import linear_solver_afg

# -- synthetic event streams ------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)
payloads = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=5,
)
events = st.builds(
    TraceEvent,
    time=st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                   allow_infinity=False),
    seq=st.integers(min_value=0, max_value=2**31),
    kind=st.text(min_size=1, max_size=24),
    source=st.text(max_size=24),
    data=payloads,
)


@given(st.lists(events, max_size=50))
def test_jsonl_round_trip_is_identity(event_list):
    assert parse_jsonl(events_to_jsonl(event_list)) == event_list


@given(st.lists(events, max_size=20))
def test_jsonl_round_trip_is_stable(event_list):
    """serialize(parse(serialize(x))) == serialize(x) — canonical form."""
    once = events_to_jsonl(event_list)
    assert events_to_jsonl(parse_jsonl(once)) == once


# -- real traces from full-stack runs ---------------------------------------


def _run_traced(seed: int) -> list:
    tracer = Tracer()
    env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=seed, tracer=tracer,
                        runtime_config=RuntimeConfig(causal_spans=True))
    env.start_monitoring()
    env.submit(linear_solver_afg(scale=0.1), k=1)
    env.advance(3.0)
    assert not env.runtime.spans.open_spans, \
        "all spans must be closed after the run"
    return tracer.events()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_full_stack_trace_invariants(seed):
    trace = _run_traced(seed)
    assert trace, "an instrumented run must record events"

    # timestamps non-decreasing, sequence numbers strictly increasing
    for earlier, later in zip(trace, trace[1:]):
        assert later.time >= earlier.time
        assert later.seq > earlier.seq

    # every span opened is closed exactly once (invariant I9)
    assert any(e.kind == EventKind.SPAN_OPEN for e in trace)
    assert span_integrity(trace) == []

    # every task start has exactly one matching finish
    starts = Counter(e.data["task"] for e in trace
                     if e.kind == EventKind.TASK_START)
    finishes = Counter(e.data["task"] for e in trace
                       if e.kind == EventKind.TASK_FINISH)
    assert starts == finishes
    assert all(count == 1 for count in starts.values())

    # the round trip through JSONL preserves the stream exactly
    assert parse_jsonl(events_to_jsonl(trace)) == trace


def test_parse_rejects_malformed_lines():
    import pytest

    with pytest.raises(ValueError, match="bad trace line 1"):
        parse_jsonl("not json\n")
    with pytest.raises(ValueError, match="bad trace line 2"):
        parse_jsonl('{"time": 0, "seq": 0, "kind": "ok"}\n{"seq": 1}\n')


def test_blank_lines_ignored():
    trace = [TraceEvent(time=1.0, seq=0, kind="x")]
    text = "\n" + events_to_jsonl(trace) + "\n\n"
    assert parse_jsonl(text) == trace

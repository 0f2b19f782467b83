"""The trace line encoder against :func:`canonical_json` (Hypothesis).

``event_to_json`` writes the outer frame of an event itself and sends
only ``data`` through a cached C encoder; whatever it is handed, its
line must be the bytes ``canonical_json`` gives for the five fields,
and ``trace_hash`` must not change when the ``json`` build has no C
accelerator at all.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import canonical_json
from repro.trace import TraceEvent, serialize
from repro.trace.serialize import event_to_json, trace_hash

pytestmark = pytest.mark.gate

#: every code point but surrogates: non-ASCII and control characters
texts = st.text(max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),                    # nan, ±inf and -0.0 included
    texts,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),
    ),
    max_leaves=12,
)
events = st.builds(
    TraceEvent,
    time=st.one_of(st.floats(), st.integers(), st.sampled_from(
        [-0.0, 1e22, math.nan, math.inf, -math.inf])),
    seq=st.integers(min_value=0),
    kind=texts,
    source=texts,
    data=st.one_of(
        st.dictionaries(texts, values, max_size=5),
        st.dictionaries(st.integers(), values, max_size=5),
    ),
)


def five_fields(event: TraceEvent) -> str:
    return canonical_json({
        "time": event.time, "seq": event.seq, "kind": event.kind,
        "source": event.source, "data": event.data,
    })


@given(events)
def test_line_is_canonical_json_of_the_five_fields(event):
    assert event_to_json(event) == five_fields(event)


@given(st.lists(events, max_size=20))
def test_trace_hash_is_unchanged_without_the_c_encoder(event_list):
    fast = trace_hash(event_list)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        patch.setattr(serialize, "event_to_json", serialize._line_encoder())
        assert serialize.event_to_json is serialize._canonical_line
        assert trace_hash(event_list) == fast

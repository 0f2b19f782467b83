"""The canonical bytes, pinned.

``trace_hash`` / ``metrics_hash`` / ``report_hash`` are the repo's
regression gate, and all three are sha256 over one encoding
(:func:`repro.hashing.canonical_json`).  These fixtures were written
out once by the ``json.dumps(..., sort_keys=True, separators=...)`` call
sites that encoding replaced; an encoder or event-record change that
drifts by a byte fails here, on the line that drifted, instead of in a
digest somebody has to bisect.
"""

import json
import math

import numpy as np

import pytest

from repro.hashing import canonical_json
from repro.metrics.export import snapshot_hash, snapshot_to_json
from repro.metrics.registry import MetricsRegistry
from repro.obs.attribution import explain, report_hash, report_to_json
from repro.obs.spans import SpanKind, SpanRecorder
from repro.trace.events import TraceEvent
from repro.trace.serialize import (
    event_to_json,
    events_to_jsonl,
    parse_jsonl,
    trace_hash,
)
from repro.trace.tracer import Tracer

pytestmark = pytest.mark.gate

#: clock readings of the fixture, one per emitted event; a caller-supplied
#: clock may return an int, which must still be written as a float
CLOCK = [0.0, 1e-07, -0.0, 3.0, 0.1 + 0.2, 1e22, 5, 123456.789]


def fixture_events():
    readings = iter(CLOCK)
    tracer = Tracer(clock=lambda: next(readings))
    tracer.emit("plain", source="monitor:s0-h01",
                host="s0-h01", load=0.25, n=3, up=True, note=None)
    tracer.emit("floats", source="app:x",
                tiny=1e-07, negzero=-0.0, whole=3.0, big=1e22, third=1 / 3)
    tracer.emit("unicode", source="app:naïve-Δ\t\"q\"\\\x01\u2028",
                text="héllo ✓ \n\r\x7f", empty="")
    tracer.emit("nested", source="gm:site-1",
                zeta={"b": 2, "a": {"y": (1, 2), "x": [None, True]}},
                alpha={3: "int key", "k": {"z": 0, "m": -1}})
    tracer.emit("containers", source="",
                pair=("s1-h00", 2), members={"c", "a", "b"},
                frozen=frozenset((3, 1, 2)), rows=[(1, 2.5), [], ()],
                nothing=[], blank={})
    tracer.emit("numpy", source="sched",
                count=np.int64(7), small=np.int32(-2), ratio=np.float64(0.1),
                single=np.float32(0.5), flag=np.bool_(True),
                vec=(np.int64(1), np.float64(2.0)))
    tracer.emit("empty")
    tracer.emit("object", source="x", path=Ellipsis, big_int=2 ** 70)
    return tracer.events() + [
        TraceEvent(time=9.5, seq=100, kind="hand", source="s",
                   data={"z": 1, "a": [1, {"q": None, "b": False}]}),
        TraceEvent(time=10.0, seq=101, kind="hand-default"),
    ]


EXPECTED_LINES = [
    '{"data":{"host":"s0-h01","load":0.25,"n":3,"note":null,"up":true},"kind":"plain","seq":0,"source":"monitor:s0-h01","time":0.0}',
    '{"data":{"big":1e+22,"negzero":-0.0,"third":0.3333333333333333,"tiny":1e-07,"whole":3.0},"kind":"floats","seq":1,"source":"app:x","time":1e-07}',
    '{"data":{"empty":"","text":"h\\u00e9llo \\u2713 \\n\\r\\u007f"},"kind":"unicode","seq":2,"source":"app:na\\u00efve-\\u0394\\t\\"q\\"\\\\\\u0001\\u2028","time":-0.0}',
    '{"data":{"alpha":{"3":"int key","k":{"m":-1,"z":0}},"zeta":{"a":{"x":[null,true],"y":[1,2]},"b":2}},"kind":"nested","seq":3,"source":"gm:site-1","time":3.0}',
    '{"data":{"blank":{},"frozen":[1,2,3],"members":["a","b","c"],"nothing":[],"pair":["s1-h00",2],"rows":[[1,2.5],[],[]]},"kind":"containers","seq":4,"source":"","time":0.30000000000000004}',
    '{"data":{"count":7,"flag":true,"ratio":0.1,"single":0.5,"small":-2,"vec":[1,2.0]},"kind":"numpy","seq":5,"source":"sched","time":1e+22}',
    '{"data":{},"kind":"empty","seq":6,"source":"","time":5.0}',
    '{"data":{"big_int":1180591620717411303424,"path":"Ellipsis"},"kind":"object","seq":7,"source":"x","time":123456.789}',
    '{"data":{"a":[1,{"b":false,"q":null}],"z":1},"kind":"hand","seq":100,"source":"s","time":9.5}',
    '{"data":{},"kind":"hand-default","seq":101,"source":"","time":10.0}',
]
EXPECTED_HEADER = '{"trace_header":{"schema_version":1}}'
EXPECTED_TRACE_HASH = (
    "075e460b89930b419d6640fe52c27ece85d8a0777f207c6dcd1285ff0564bd4e"
)


#: hand-built events whose clock the line encoder's fast frame cannot
#: write with ``float.__repr__``, or only just can: an int stays an int,
#: non-finite values are JSON's ``NaN`` / ``Infinity``
HAND_CLOCK_EVENTS = [
    TraceEvent(time=5, seq=0, kind="int-clock", source="s", data={"t": 5}),
    TraceEvent(time=math.nan, seq=1, kind="nan-clock", data={"x": math.nan}),
    TraceEvent(time=math.inf, seq=2, kind="inf-clock",
               data={"x": -math.inf}),
    TraceEvent(time=-0.0, seq=3, kind="negzero-clock"),
    TraceEvent(time=1e22, seq=4, kind="big-clock"),
]
EXPECTED_HAND_CLOCK_LINES = [
    '{"data":{"t":5},"kind":"int-clock","seq":0,"source":"s","time":5}',
    '{"data":{"x":NaN},"kind":"nan-clock","seq":1,"source":"","time":NaN}',
    '{"data":{"x":-Infinity},"kind":"inf-clock","seq":2,"source":"","time":Infinity}',
    '{"data":{},"kind":"negzero-clock","seq":3,"source":"","time":-0.0}',
    '{"data":{},"kind":"big-clock","seq":4,"source":"","time":1e+22}',
]
EXPECTED_HAND_CLOCK_HASH = (
    "1115f95bfbf799ad597fd66364a204ada41a94b3a518621f824461ab3516f67b"
)


def test_event_lines_are_byte_exact():
    assert [event_to_json(e) for e in fixture_events()] == EXPECTED_LINES


def test_a_numpy_bool_payload_is_a_json_bool():
    """``np.bool_`` is neither ``np.integer`` nor ``np.floating``; it used
    to fall through to ``str`` and be recorded as the string "True"."""
    tracer = Tracer()
    tracer.emit("x", flag=np.bool_(True), off=np.bool_(False))
    data = tracer.events()[0].data
    assert data == {"flag": True, "off": False}
    assert all(type(value) is bool for value in data.values())


def test_hand_built_clocks_are_byte_exact():
    lines = [event_to_json(e) for e in HAND_CLOCK_EVENTS]
    assert lines == EXPECTED_HAND_CLOCK_LINES
    assert lines == [canonical_json(e.to_dict()) for e in HAND_CLOCK_EVENTS]
    assert trace_hash(HAND_CLOCK_EVENTS) == EXPECTED_HAND_CLOCK_HASH


def test_a_failed_encode_leaves_no_circular_marker_behind():
    inner = {"b": object()}
    bad = TraceEvent(time=1.0, seq=0, kind="bad", data={"a": inner})
    for _ in range(2):
        try:
            event_to_json(bad)
        except TypeError as exc:
            assert "not JSON serializable" in str(exc)
    inner["b"] = 1
    assert event_to_json(bad) == canonical_json(bad.to_dict())


def test_trace_hash_and_jsonl_are_byte_exact():
    events = fixture_events()
    assert trace_hash(events) == EXPECTED_TRACE_HASH
    assert events_to_jsonl(events) == "\n".join(
        [EXPECTED_HEADER] + EXPECTED_LINES
    ) + "\n"


def test_jsonl_round_trips():
    events = fixture_events()
    parsed = parse_jsonl(events_to_jsonl(events))
    assert parsed == events
    assert trace_hash(parsed) == EXPECTED_TRACE_HASH


def test_encoding_does_not_alias_or_alter_the_event():
    events = fixture_events()
    before = [e.to_dict() for e in events]
    trace_hash(events)
    events_to_jsonl(events)
    assert [e.to_dict() for e in events] == before
    assert events[0].to_dict()["data"] is not events[0].data


def test_canonical_json_is_json_dumps_sorted_and_compact():
    value = {"b": [1, 2.5, None, True, "é\n"], "a": {"z": -0.0, "y": 1e-07}}
    assert canonical_json(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":")
    )
    assert canonical_json(value) == (
        '{"a":{"y":1e-07,"z":-0.0},"b":[1,2.5,null,true,"\\u00e9\\n"]}'
    )


# -- metrics snapshot ---------------------------------------------------------

def fixture_registry():
    clock = [0.0]
    registry = MetricsRegistry(clock=lambda: clock[0])
    sent = registry.counter("msgs_total", "messages \"sent\"")
    sent.inc(host="s0-h01", site="site-0")
    sent.inc(2.5, site="site-1", host="s1-h00")
    clock[0] = 1.5
    registry.gauge("queue_depth", "pending").set(3, site="site-0")
    lat = registry.histogram("latency_s", "rpc latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 1e-07, 7.0):
        lat.observe(value, op="bid")
    clock[0] = 2.25
    registry.series("load", "bg load").observe(0.1 + 0.2, host="s0-h01")
    return registry


EXPECTED_SNAPSHOT = (
    '{"counters":{"msgs_total":{"help":"messages \\"sent\\"","values":{"host=s0-h01,site=site-0":1.0,"host=s1-h00,site=site-1":2.5}}},'
    '"gauges":{"queue_depth":{"help":"pending","values":{"site=site-0":[1.5,3.0]}}},'
    '"histograms":{"latency_s":{"buckets":[0.1,1.0],"help":"rpc latency","values":{"op=bid":{"count":4,"counts":[2,1,1],"sum":7.5500001}}}},'
    '"schema_version":1,'
    '"series":{"load":{"help":"bg load","values":{"host=s0-h01":[[2.25,0.30000000000000004]]}}}}\n'
)
EXPECTED_SNAPSHOT_HASH = (
    "89c3ff1a201cd27de12a38a6224167559f086068bdd048f619fbd7f89aa36f6b"
)


def test_metrics_snapshot_is_byte_exact():
    registry = fixture_registry()
    snapshot = registry.snapshot()
    assert snapshot_to_json(snapshot) == EXPECTED_SNAPSHOT
    assert snapshot_hash(snapshot) == EXPECTED_SNAPSHOT_HASH
    assert registry.snapshot_hash() == EXPECTED_SNAPSHOT_HASH


# -- explain report -----------------------------------------------------------

def fixture_span_trace():
    """One app 0..6: queue 1 s, then a task whose execute (2..5) overlaps
    a retry backoff (1.5..2.5); the last second is unattributed."""
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])
    spans = SpanRecorder(tracer)
    root = spans.root_of("app-é", source="dsm")
    wait = spans.open(SpanKind.ADMISSION_WAIT, "app-é", parent=root)
    clock[0] = 1.0
    spans.close(wait)
    task = spans.open(SpanKind.TASK, "app-é", parent=root, task="t1",
                      site="site-0", hosts=("s0-h01",))
    clock[0] = 1.5
    backoff = spans.open(SpanKind.RETRY_BACKOFF, "app-é", parent=task)
    clock[0] = 2.0
    execute = spans.open(SpanKind.EXECUTE, "app-é", parent=task,
                         host="s0-h01", task="t1")
    clock[0] = 2.5
    spans.close(backoff)
    clock[0] = 5.0 + 1e-07
    spans.close(execute)
    spans.close(task)
    clock[0] = 6.0
    spans.close_root("app-é")
    return tracer.events()


EXPECTED_REPORT = (
    '{"apps":{"app-\\u00e9":{"breakdown":{"drain":0.0,"execution":3.0000001,"other":1.4999999,"queue":1.0,"repair":0.0,"retry":0.5,"scheduling":0.0,"shed":0.0,"speculation":0.0,"staging":0.0},'
    '"breakdown_residual_s":0.0,'
    '"critical_path":[{"close":6.0,"duration_s":6.0,"open":0.0,"span":"app","span_id":1,"task":null},{"close":5.0000001,"duration_s":4.0000001,"open":1.0,"span":"task","span_id":3,"task":"t1"},{"close":5.0000001,"duration_s":3.0000001,"open":2.0,"span":"execute","span_id":5,"task":"t1"}],'
    '"tasks":{"t1":{"breakdown":{"drain":0.0,"execution":3.0000001,"other":0.5,"queue":0.0,"repair":0.0,"retry":0.5,"scheduling":0.0,"shed":0.0,"speculation":0.0,"staging":0.0},"hosts":["s0-h01"],"site":"site-0","status":"ok","wall_s":4.0000001}},'
    '"top_tasks":[{"task":"t1","wall_s":4.0000001}],"wall_s":6.0,"windows":1}},'
    '"integrity":{"orphaned_spans":0,"violations":[]},"schema_version":4,'
    '"top_hosts":[{"execute_s":3.0000001,"host":"s0-h01"}]}\n'
)
EXPECTED_REPORT_HASH = (
    "8c37ffd14eab0394fbacf07b570db3098e3f01ac6997a7527ce56b0333625ee6"
)


def test_explain_report_is_byte_exact():
    report = explain(fixture_span_trace())
    assert report_to_json(report) == EXPECTED_REPORT
    assert report_hash(report) == EXPECTED_REPORT_HASH

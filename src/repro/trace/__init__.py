"""Structured event tracing across the VDCE stack.

The paper's Resource Controller is built on continuous measurement
(Monitor daemons, echo packets, significant-change filtering); this
package is the reproduction's counterpart for *observability*: every
interesting runtime action — task lifecycle, schedule decisions,
monitor reports, echo/failure/recovery, channel setup, data transfers
— can be recorded as a typed, timestamped event.

Because the simulation kernel is fully deterministic, a trace is also a
regression oracle: two same-seed runs produce byte-identical canonical
traces, and :func:`~repro.trace.serialize.trace_hash` reduces that to
one comparable string.  The default tracer everywhere is the no-op
:data:`~repro.trace.tracer.NULL_TRACER`, so instrumentation costs one
attribute check when disabled.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "events": ("EventKind", "KNOWN_KINDS", "TraceEvent"),
    "serialize": (
        "event_to_json", "events_to_jsonl", "parse_jsonl", "read_jsonl",
        "trace_hash", "write_jsonl",
    ),
    "tracer": ("NULL_TRACER", "NullTracer", "Tracer"),
})

__all__ = [
    "EventKind",
    "KNOWN_KINDS",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "event_to_json",
    "events_to_jsonl",
    "parse_jsonl",
    "read_jsonl",
    "trace_hash",
    "write_jsonl",
]

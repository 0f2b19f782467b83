"""Trace persistence: JSONL export/import and canonical hashing.

The wire format is one JSON object per line (``TraceEvent.to_dict``).
The *canonical* form — sorted keys, minimal separators — is what the
content hash is computed over, so the hash is a function of the trace's
information only, never of incidental formatting.  Because the
simulation kernel is fully deterministic, two same-seed runs produce
byte-identical canonical traces, which makes :func:`trace_hash` an
exact, cheap regression oracle.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from typing import Callable, Dict, List, Sequence, Union

from repro.hashing import _CANONICAL, canonical_json
from repro.trace.events import TraceEvent
from repro.trace.tracer import Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "event_to_json",
    "events_of",
    "events_to_jsonl",
    "parse_jsonl",
    "read_jsonl",
    "trace_hash",
    "write_jsonl",
]

#: version of the on-disk JSONL layout.  Bump when an event's shape
#: changes incompatibly; readers fail loudly on a mismatch instead of
#: silently misinterpreting old files.
TRACE_SCHEMA_VERSION = 1

TraceLike = Union[Tracer, Sequence[TraceEvent]]


def events_of(trace: TraceLike) -> List[TraceEvent]:
    """The events of a :class:`Tracer` or of a plain event sequence."""
    if isinstance(trace, Tracer):
        return trace.events()
    return list(trace)


def _canonical_line(event: TraceEvent) -> str:
    return canonical_json(event.to_dict())


def _line_encoder() -> Callable[[TraceEvent], str]:
    """Every reader's line encoder (DESIGN §7): :func:`_canonical_line`'s
    bytes, ``data`` through one C encoder with ``_CANONICAL``'s settings
    and the sorted outer frame written here."""
    make = json.encoder.c_make_encoder
    if make is None:
        return _canonical_line
    escape = json.encoder.encode_basestring_ascii   # encode() of a str
    # no circular-reference markers: a failed encode would leave its own
    # behind in a dict shared by every later event
    encode_data = make(None, _CANONICAL.default, escape, _CANONICAL.indent,
                       _CANONICAL.key_separator, _CANONICAL.item_separator,
                       _CANONICAL.sort_keys, _CANONICAL.skipkeys,
                       _CANONICAL.allow_nan)
    #: the frame around ``kind``: a few dozen kinds, where sources grow
    #: with the application (``xfer:n185->n235``) and are escaped per event
    kinds: Dict[str, str] = {}

    def event_to_json(event: TraceEvent) -> str:
        """Canonical single-line JSON for one event."""
        time, seq, kind, source = event.time, event.seq, event.kind, event.source
        if (type(time) is not float or time - time != 0.0
                or type(seq) is not int or type(kind) is not str
                or type(source) is not str):
            return _canonical_line(event)
        kind_frame = kinds.get(kind) or kinds.setdefault(
            kind, f',"kind":{escape(kind)},"seq":')
        data = "".join(encode_data(event.data, 0))
        return (f'{{"data":{data}{kind_frame}{seq},"source":{escape(source)},'
                f'"time":{time!r}}}')

    return event_to_json


event_to_json = _line_encoder()


def events_to_jsonl(trace: TraceLike) -> str:
    """The whole trace as canonical JSONL (trailing newline included).

    The first line is a schema header (``{"trace_header": ...}``);
    :func:`trace_hash` is computed over the events only, so adding or
    bumping the header never changes a trace's identity.
    """
    header = canonical_json(
        {"trace_header": {"schema_version": TRACE_SCHEMA_VERSION}}
    )
    lines = [header] + [event_to_json(e) for e in trace]
    return "\n".join(lines) + "\n"


def write_jsonl(trace: TraceLike, path: str) -> str:
    """Write the trace to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(events_to_jsonl(trace))
    return path


def parse_jsonl(text: str) -> List[TraceEvent]:
    """Parse JSONL text back into events (blank lines ignored).

    A leading schema header is validated and stripped: an unknown
    ``schema_version`` raises :class:`ValueError` rather than letting
    analysis tools silently misread the file.  Headerless files (from
    before the header existed) still parse.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"bad trace line {lineno}: {exc}") from exc
        if not (isinstance(payload, dict)
                and isinstance(payload.get("trace_header", {}), dict)
                and isinstance(payload.get("data", {}), dict)):
            raise ValueError(f"bad trace line {lineno}: not an event object")
        if "trace_header" in payload:
            version = payload["trace_header"].get("schema_version")
            if version != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"trace schema_version {version!r} is not supported "
                    f"(this build reads version {TRACE_SCHEMA_VERSION})"
                )
            continue
        try:
            events.append(TraceEvent.from_dict(payload))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad trace line {lineno}: {exc}") from exc
    return events


def read_jsonl(path: str) -> List[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jsonl(fh.read())


#: events per ``sha256.update``: few calls, small enough to stay out of RSS
_HASH_CHUNK = 1024


def trace_hash(trace: TraceLike) -> str:
    """SHA-256 over the canonical JSONL — the trace's stable identity."""
    digest = hashlib.sha256()
    events = iter(trace)
    while lines := [event_to_json(e) for e in islice(events, _HASH_CHUNK)]:
        lines.append("")
        digest.update("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()

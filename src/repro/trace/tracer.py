"""The Tracer: structured event recording — the one call a moment makes.

* :class:`Tracer` — records :class:`~repro.trace.events.TraceEvent`
  objects in memory and stamps them with a caller-supplied clock (the
  simulator binds its virtual clock via :meth:`bind_clock`); causal
  spans are recorded through it by :class:`~repro.obs.spans.SpanRecorder`.
  The deployment's metrics registry folds each event of a kind it has
  a fold for (:meth:`Tracer.listen`), so metrics are written by the
  emit itself.
* :class:`NullTracer` — the default everywhere: nobody listens.
* :class:`RelayTracer` — keeps nothing, hands each event to its
  listener: the emitter of a deployment with metrics but no trace.

``enabled`` means someone listens, ``records`` that events are kept.
Only emits of per-task kinds guard with ``if tracer.enabled:`` (DESIGN
§13.7).  :data:`NULL_TRACER` is the shared disabled tracer.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Callable, Container, Iterator, List, Optional

from repro.trace.events import TraceEvent

__all__ = ["NULL_TRACER", "NullTracer", "RelayTracer", "Tracer"]

#: payload types that are already JSON scalars; :meth:`Tracer.emit`
#: stores these as they are.  Exact types only — a ``str``/``int``/
#: ``float`` subclass (numpy scalars, enums) still goes through
#: :func:`_jsonify`.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _jsonify(value: Any) -> Any:
    """Coerce a payload value to something ``json.dumps`` accepts.

    numpy scalars become Python scalars, tuples/sets become lists, and
    mappings are converted recursively — so emit sites can pass
    whatever they have on hand without thinking about the wire format.
    numpy is looked up, not imported: a numpy value cannot exist before
    numpy is.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    np = sys.modules.get("numpy")
    if np is not None:
        for numpy_type, python_type in ((np.bool_, bool), (np.integer, int),
                                        (np.floating, float)):
            if isinstance(value, numpy_type):
                return python_type(value)
    return str(value)


class Tracer:
    """In-memory structured event recorder.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time.  Simulated
        deployments bind the virtual clock (``lambda: sim.now``) via
        :meth:`bind_clock`; the real-socket Data Manager passes
        ``time.monotonic``.  Defaults to a constant 0.0 until bound.
    """

    enabled: bool = True
    records: bool = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self._seq = itertools.count()
        self._events: List[TraceEvent] = []
        #: handed ``(kind, source, data)`` of each event of a kind ``_heard``
        self._listener: Optional[Callable[..., None]] = None
        self._heard: Container[str] = ()

    # -- clock -------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a (new) time source."""
        self._clock = clock

    @property
    def now(self) -> float:
        return float(self._clock())

    # -- recording ---------------------------------------------------------

    def listen(self, listener: Callable[..., None], kinds: Container[str]) -> None:
        """Hand each event of ``kinds`` recorded from now on to ``listener``."""
        self._listener = listener
        self._heard = kinds

    def emit(self, kind: str, source: str = "", **data: Any) -> TraceEvent:
        """Record one event at the current clock reading.

        ``data`` is this call's own keyword dict, so it becomes the
        event's payload in place; only values that are not already
        plain JSON scalars are converted.  A listener gets it last.
        """
        for key, value in data.items():
            if type(value) not in _PLAIN:
                data[key] = _jsonify(value)
        time = self._clock()
        if type(time) is not float:
            time = float(time)
        event = TraceEvent(time, next(self._seq), kind, source, data)
        self._events.append(event)
        if kind in self._heard:
            self._listener(kind, source, data)
        return event

    # -- access ------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Snapshot of everything recorded so far."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:     # no :meth:`events` copy
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer({len(self._events)} events, t={self.now:.6g})"


class NullTracer(Tracer):
    """The disabled tracer: nobody listens, costs (almost) nothing."""

    enabled = False
    records = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def emit(self, kind: str, source: str = "", **data: Any) -> None:  # type: ignore[override]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


class RelayTracer(NullTracer):
    """Records nothing; hands each event it listens for to its listener."""

    enabled = True

    def emit(self, kind: str, source: str = "", **data: Any) -> None:  # type: ignore[override]
        if kind in self._heard:
            self._listener(kind, source, data)


#: shared disabled tracer — safe because it holds no state
NULL_TRACER = NullTracer()

"""Deterministic discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: *processes* are
Python generators that ``yield`` waitable objects (:class:`Timeout`,
:class:`Signal`, :class:`Process`, :class:`AllOf`, :class:`AnyOf`) and
are resumed by the :class:`Simulator` when the waited-on condition
fires.  Event ordering is fully deterministic: ties in virtual time are
broken by a monotonically increasing sequence number, and all randomness
is drawn from named, seed-derived :mod:`numpy` generator streams
(:meth:`Simulator.rng`), so two runs with the same seed produce
identical traces regardless of host platform or dict ordering.

The kernel intentionally keeps the waitable vocabulary small; the whole
VDCE runtime (monitor daemons, group managers, echo packets, channel
setup, task execution) is expressed with these five primitives.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.metrics.registry import NULL_METRICS, MetricsRegistry
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Signal",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, double-firing signals, ...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` carries an arbitrary payload describing why — the VDCE
    Application Controller uses it to abort task executions whose host
    load crossed the rescheduling threshold (paper §4.1).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Waitable:
    """Base class for things a process may ``yield`` (slotted, as all are)."""

    __slots__ = ()

    #: exception delivered to the waiting process instead of ``value``
    _exc: Optional[BaseException] = None

    def _subscribe(self, sim: "Simulator", callback: Callable[["_Waitable"], None]) -> None:
        raise NotImplementedError


class Timeout(_Waitable):
    """Fires after ``delay`` units of virtual time, delivering ``value``."""

    __slots__ = ("delay", "value", "triggered", "_callback")

    def __init__(self, delay: float, value: Any = None):
        # refuses NaN too; +inf is a legal "never" (an unbounded RPC timeout)
        if not (delay >= 0):
            raise SimulationError(f"negative or NaN Timeout delay: {delay!r}")
        self.delay = float(delay)
        self.value = value
        self.triggered = False
        self._callback: Optional[Callable[[_Waitable], None]] = None

    def _subscribe(self, sim: "Simulator", callback: Callable[[_Waitable], None]) -> None:
        # First (and in practice only) waiter rides the bound method —
        # one fewer closure allocation per simulated event.  A shared
        # timeout's extra waiters fall back to per-waiter closures.
        if self._callback is None:
            self._callback = callback
            sim.call_at(sim.now + self.delay, self._fire)
        else:
            def fire() -> None:
                self.triggered = True
                callback(self)

            sim.call_at(sim.now + self.delay, fire)

    def _fire(self) -> None:
        self.triggered = True
        self._callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay})"


class Signal(_Waitable):
    """A one-shot event that any number of processes can wait on.

    ``succeed(value)`` wakes all current and future waiters with
    ``value``; ``fail(exc)`` raises ``exc`` inside them.  Signals are
    the kernel's rendezvous primitive: the Data Manager's channel-setup
    acknowledgements and the "execution startup signal" of paper §4.2
    are literal :class:`Signal` instances.
    """

    __slots__ = ("name", "triggered", "value", "_exc", "_callbacks")

    def __init__(self, name: str = ""):
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[[_Waitable], None]] = []

    def succeed(self, value: Any = None) -> "Signal":
        return self._fire(value, None)

    def fail(self, exc: BaseException) -> "Signal":
        return self._fire(None, exc)

    def _fire(self, value: Any, exc: Optional[BaseException]) -> "Signal":
        if self.triggered:
            raise SimulationError(f"signal {self.name!r} already triggered")
        self.triggered = True
        self.value, self._exc = value, exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    @property
    def failed(self) -> bool:
        return self._exc is not None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def _subscribe(self, sim: "Simulator", callback: Callable[[_Waitable], None]) -> None:
        if self.triggered:
            # Deliver asynchronously so waiters never run inside succeed().
            sim.call_at(sim.now, lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.triggered else "pending"
        return f"Signal({self.name!r}, {state})"


class AllOf(_Waitable):
    """Fires when every child has fired; value is their value list.

    A child that *fails* (a failed :class:`Signal` or a :class:`Process`
    that raised) fails the composite immediately — its exception is
    re-raised in the waiting process rather than silently swallowed.
    """

    __slots__ = ("children", "triggered", "value", "_exc")

    def __init__(self, children: Iterable[_Waitable]):
        self.children = list(children)
        self.triggered = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None

    def _subscribe(self, sim: "Simulator", callback: Callable[[_Waitable], None]) -> None:
        remaining = len(self.children)
        if remaining == 0:
            self.triggered = True
            self.value = []
            sim.call_at(sim.now, lambda: callback(self))
            return

        pending = [remaining]
        failed = [False]

        def child_done(child: _Waitable) -> None:
            if failed[0]:
                return
            child_exc = child._exc
            if child_exc is not None:
                failed[0] = True
                self.triggered = True
                self._exc = child_exc
                if hasattr(child, "_exc_observed"):
                    child._exc_observed = True
                callback(self)
                return
            pending[0] -= 1
            if pending[0] == 0:
                self.triggered = True
                self.value = [c.value for c in self.children]
                callback(self)

        for child in self.children:
            child._subscribe(sim, child_done)


class AnyOf(_Waitable):
    """Fires when the first child fires; value is ``(index, child_value)``.

    If the first child to fire *failed*, its exception propagates to
    the waiter.
    """

    __slots__ = ("children", "triggered", "value", "_exc")

    def __init__(self, children: Iterable[_Waitable]):
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf requires at least one child")
        self.triggered = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None

    def _subscribe(self, sim: "Simulator", callback: Callable[[_Waitable], None]) -> None:
        done = [False]

        def make_child_done(index: int) -> Callable[[_Waitable], None]:
            def child_done(child: _Waitable) -> None:
                if done[0]:
                    return
                done[0] = True
                self.triggered = True
                child_exc = child._exc
                if child_exc is not None:
                    self._exc = child_exc
                    if hasattr(child, "_exc_observed"):
                        child._exc_observed = True
                else:
                    self.value = (index, child.value)
                callback(self)

            return child_done

        for i, child in enumerate(self.children):
            child._subscribe(sim, make_child_done(i))


ProcessGenerator = Generator[_Waitable, Any, Any]


class Process(_Waitable):
    """A running generator process; itself waitable (fires on return).

    The return value of the generator becomes :attr:`value`.  An
    uncaught exception inside the generator is stored and re-raised in
    any process that waits on this one (and escalated to
    :meth:`Simulator.run` if nobody does).
    """

    __slots__ = ("sim", "gen", "name", "triggered", "value", "_exc",
                 "_exc_observed", "_callbacks", "_interrupting",
                 "_current_wait")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.triggered = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None
        self._exc_observed = False
        self._callbacks: list[Callable[[_Waitable], None]] = []
        self._interrupting = False
        self._current_wait: Optional[_Waitable] = None
        if sim.tracer.enabled:
            sim.tracer.emit(EventKind.PROCESS_SPAWN, source=self.name)
        sim.call_at(sim.now, self._step)

    # -- public API ---------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.triggered

    @property
    def failed(self) -> bool:
        return self._exc is not None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            return
        self._interrupting = True
        cause_exc = Interrupt(cause)
        self.sim.call_at(self.sim.now, lambda: self._deliver_interrupt(cause_exc))

    # -- kernel machinery ----------------------------------------------

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self.triggered:
            return
        self._interrupting = False
        self._current_wait = None
        self._step(None, exc)

    def _step(self, send_value: Any = None,
              throw_exc: Optional[BaseException] = None) -> None:
        if self.triggered:
            return
        try:
            if throw_exc is not None:
                target = self.gen.throw(throw_exc)
            else:
                target = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._finish(None, exc)
            return

        if not isinstance(target, _Waitable):
            self._finish(
                None,
                SimulationError(
                    f"process {self.name!r} yielded non-waitable {target!r}"
                ),
            )
            return

        self._current_wait = target
        target._subscribe(self.sim, self._resume)

    def _resume(self, waited: _Waitable) -> None:
        if self.triggered or self._interrupting or self._current_wait is not waited:
            return
        self._current_wait = None
        exc = waited._exc
        if exc is not None:
            self._step(None, exc)
        else:
            self._step(waited.value, None)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self.triggered = True
        self.value = value
        self._exc = exc
        if exc is None:
            if self.sim.tracer.enabled:
                self.sim.tracer.emit(EventKind.PROCESS_FINISH, source=self.name)
        else:
            self.sim.tracer.emit(
                EventKind.PROCESS_FAIL, source=self.name,
                error=type(exc).__name__,
            )
            self.sim._record_failed_process(self)
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def _subscribe(self, sim: "Simulator", callback: Callable[[_Waitable], None]) -> None:
        self._exc_observed = True
        if self.triggered:
            sim.call_at(sim.now, lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"Process({self.name!r}, {state})"


class _ScheduledCall(list):
    """One calendar entry ``[time, seq, callback, cancelled]``: heap item
    and handle in one.  ``seq`` is unique, so heap comparisons stay in C
    on ``(time, seq)``, the event order; ``cancelled`` skips it at pop."""

    __slots__ = ()

    callback = property(itemgetter(2))
    cancelled = property(itemgetter(3), lambda self, v: self.__setitem__(3, v))


class Simulator:
    """The event loop: virtual clock, calendar queue, RNG streams, tracing.

    Parameters
    ----------
    seed:
        Master seed.  Every component draws randomness from
        :meth:`rng`, which derives an independent stream from
        ``(seed, name)`` — adding a new random component never perturbs
        existing streams.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.now: float = 0.0
        #: heap of calendar entries — see _ScheduledCall
        self._queue: list[_ScheduledCall] = []
        self._seq = itertools.count()
        self._rngs: dict[str, np.random.Generator] = {}
        self._failed: list[Process] = []
        #: the deployment's one emitter (no-op until attached)
        self.tracer: Tracer = NULL_TRACER
        #: metrics registry (no-op unless a real registry is attached)
        self.attach_metrics(NULL_METRICS)
        self.events_processed = 0

    # -- randomness -----------------------------------------------------

    def rng(self, name: str) -> np.random.Generator:
        """Named deterministic RNG stream (stable across runs and platforms).

        A stream is a pure function of ``(seed, name)``, so *when* it is
        first asked for cannot change a value it yields.  A miss builds a
        ``SeedSequence`` + PCG64 + ``Generator`` (~40 us) that is kept for
        the life of the simulator; a hit is one dict look-up.  Callers
        therefore take a stream at the statement that draws from it, not
        when they merely might need it — and a run that draws nothing
        never imports numpy.
        """
        if name not in self._rngs:
            import numpy as np

            child = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=tuple(name.encode("utf-8")),
            )
            self._rngs[name] = np.random.default_rng(child)
        return self._rngs[name]

    @property
    def rng_streams(self) -> int:
        """How many named streams have been materialised (misses, not calls)."""
        return len(self._rngs)

    # -- tracing ----------------------------------------------------------

    def attach_tracer(self, tracer: Tracer) -> Tracer:
        """Install a structured tracer and bind it to the virtual clock.

        Returns the deployment's emitter: ``tracer``, folded by the
        attached registry (if any).  Kernel process lifecycle events go
        through it; the rest of the stack shares it through
        :class:`~repro.runtime.vdce_runtime.VDCERuntime`.
        """
        tracer.bind_clock(lambda: self.now)
        self.tracer = self.metrics.emitter(tracer)
        return self.tracer

    # -- metrics ----------------------------------------------------------

    def attach_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Install a metrics registry and bind it to the virtual clock.

        The registry folds every event the attached tracer emits (see
        :meth:`~repro.metrics.registry.MetricsRegistry.emitter`).  The kernel writes its
        event-loop instruments directly: a calendar event is no trace
        event — :meth:`run` binds their cells once and writes them in place.
        """
        self.metrics = registry
        registry.bind_clock(lambda: self.now)
        self.tracer = registry.emitter(self.tracer)
        events = registry.counter(
            "sim_events_total", "kernel calendar events executed"
        )
        depth = registry.histogram(
            "sim_queue_depth",
            "pending calendar-queue depth sampled at each event",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
        )
        #: the two families' cells, edges and first bucket row, or None
        self._meter = (events._values, depth._counts, depth._sums,
                       depth.buckets, [0] * (len(depth.buckets) + 1),
                       ) if registry.enabled else None
        return registry

    def export_metrics(self) -> None:
        """Set the kernel's end-of-run gauges (virtual time, event rate)."""
        if not self.metrics.enabled:
            return
        self.metrics.gauge(
            "sim_virtual_time_seconds", "virtual clock at export time"
        ).set(self.now)
        self.metrics.gauge(
            "sim_events_per_sim_second",
            "events executed per unit of virtual time",
        ).set(self.events_processed / self.now if self.now > 0 else 0.0)

    # -- scheduling -------------------------------------------------------

    def call_at(self, time: float, callback: Callable[[], None]) -> _ScheduledCall:
        """Schedule a raw callback at absolute virtual ``time`` (not NaN)."""
        if not (time >= self.now):
            raise SimulationError(f"cannot schedule at {time} (now {self.now})")
        call = _ScheduledCall((float(time), next(self._seq), callback, False))
        heapq.heappush(self._queue, call)
        return call

    def call_after(self, delay: float, callback: Callable[[], None]) -> _ScheduledCall:
        """Schedule a raw callback ``delay`` units from now."""
        return self.call_at(self.now + delay, callback)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    def signal(self, name: str = "") -> Signal:
        return Signal(name)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a generator as a kernel process."""
        return Process(self, gen, name=name)

    # -- running -----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Execute events until the queue drains, ``until`` is reached, or
        ``stop_when()`` becomes true.

        Returns the final value of the virtual clock.  If a process died
        with an exception that no other process observed, the exception
        is re-raised here — silent failures do not exist.  A NaN
        ``until`` is refused: no event time is ever past it.
        """
        if until is not None and until != until:
            raise SimulationError(f"cannot run until {until}")
        queue = self._queue
        pop = heapq.heappop
        meter = self._meter
        if meter is not None:
            totals, rows, sums, edges, fresh = meter
        while queue:
            if stop_when is not None and stop_when():
                return self.now
            time, _seq, callback, cancelled = queue[0]
            if cancelled:
                pop(queue)
                continue
            if until is not None and time > until:
                break
            pop(queue)
            self.now = time
            self.events_processed += 1
            if meter is not None:
                depth = len(queue)
                totals[()] = totals.get((), 0.0) + 1.0
                rows.setdefault((), fresh)[bisect_left(edges, depth)] += 1
                sums[()] = sums.get((), 0.0) + depth
            callback()
            if self._failed:
                self._raise_unobserved_failures()
        if until is not None and self.now < until and (
            stop_when is None or not stop_when()
        ):
            self.now = float(until)
        return self.now

    def run_until_complete(self, proc: Process, limit: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes; return its value or raise its error.

        Stops as soon as the process completes, so perpetual background
        processes (monitor daemons, echo loops) do not prevent return.
        """
        self.run(until=limit, stop_when=lambda: proc.triggered)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not complete by t={self.now}"
            )
        if proc.exception is not None:
            proc._exc_observed = True
            raise proc.exception
        return proc.value

    def _record_failed_process(self, proc: Process) -> None:
        self._failed.append(proc)

    def _raise_unobserved_failures(self) -> None:
        while self._failed:
            proc = self._failed.pop()
            if not proc._exc_observed and proc._exc is not None:
                raise proc._exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={len(self._queue)})"

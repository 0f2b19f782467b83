"""Application Controllers — one per machine (paper §4.1).

"The Application Controller sets up the execution environment and
manages the services provided by interacting with the Data Manager. ...
The Application Controller monitors the application execution on the
assigned machines.  If the current load on any of these machines is
more than a predefined threshold value, the Application Controller
terminates the task execution on the machine and sends a task
rescheduling request to the Group Manager."

In this codebase the controller guards every slice it starts: while its
host's *background* load is over ``load_threshold`` each resident slice
is checked at its next ``check_period_s`` boundary (counted from the
slice's start) and cancelled if the load is still over.  The cancelled
slice fails with :class:`~repro.sim.host.Interrupted`; the coordinator's
task process catches that and asks the Site Manager for a replacement
placement.  The watch is a conditional event, not a timer
(DESIGN §5): the host notifies the controller when its background load
changes, and a host that stays under the threshold costs no kernel
events however many slices it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set, Tuple

from repro.sim.host import Host, TaskExecution
from repro.sim.kernel import Simulator
from repro.runtime.stats import RuntimeStats
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["AppController", "LoadCheckCalendar"]


@dataclass(slots=True, eq=False)
class _Watch:
    """One guarded slice: whose it is and when its next check falls."""

    controller: "AppController"
    execution: TaskExecution
    task_id: str
    #: the next check boundary not yet fired; advanced only by
    #: ``+= check_period_s`` so it stays on the floats a periodic timer
    #: started with the slice would hit
    boundary: float
    armed: bool = False


class LoadCheckCalendar:
    """The load checks due at each instant, across every controller.

    One calendar entry per distinct instant; the checks due in it run
    oldest slice first (``TaskExecution.id`` order) whichever host's
    load armed them first.  Share one calendar between the controllers
    of a simulator — the cancel order decides the order in which task
    processes reschedule, so it must not depend on which host crossed
    its threshold first.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: instant -> (its calendar entry, the checks due by slice id)
        self._due: Dict[float, Tuple[Any, Dict[int, _Watch]]] = {}

    def __len__(self) -> int:
        """Armed checks (not instants) currently on the calendar."""
        return sum(len(due) for _, due in self._due.values())

    def arm(self, watch: _Watch) -> None:
        time = watch.boundary
        slot = self._due.get(time)
        if slot is None:
            call = self.sim.call_at(time, lambda: self._fire(time))
            slot = self._due[time] = (call, {})
        slot[1][watch.execution.id] = watch
        watch.armed = True

    def disarm(self, watch: _Watch) -> None:
        call, due = self._due[watch.boundary]
        del due[watch.execution.id]
        watch.armed = False
        if not due:
            call.cancelled = True
            del self._due[watch.boundary]

    def _fire(self, time: float) -> None:
        _, due = self._due.pop(time)
        watches = [due[key] for key in sorted(due)]
        # off the calendar before any check runs: a cancel resumes the
        # task process synchronously, which may end sibling slices
        for watch in watches:
            watch.armed = False
            watch.boundary += watch.controller.check_period_s
        for watch in watches:
            if not watch.execution.done.triggered:
                watch.controller._check(watch)


class AppController:
    """Per-host execution agent."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        stats: RuntimeStats,
        load_threshold: float = 4.0,
        check_period_s: float = 2.0,
        tracer: Tracer = NULL_TRACER,
        *,
        checks: LoadCheckCalendar,
    ):
        if load_threshold <= 0:
            raise ValueError("load_threshold must be positive")
        if check_period_s <= 0:
            raise ValueError("check_period_s must be positive")
        self.sim = sim
        self.host = host
        self.stats = stats
        self.tracer = tracer
        self.load_threshold = float(load_threshold)
        self.check_period_s = float(check_period_s)
        #: shared with the other controllers of the deployment
        self.checks = checks
        #: applications whose execution request has arrived
        self.active_applications: Set[str] = set()
        self.requests_received = 0
        #: guarded slices still running here, by ``TaskExecution.id``
        self._watches: Dict[int, _Watch] = {}
        host.load_listener = self._on_load_change

    def receive_execution_request(self, application: str) -> None:
        """Group Manager delivery of the allocation-table portion."""
        self.active_applications.add(application)
        self.requests_received += 1

    def release(self, application: str) -> None:
        self.active_applications.discard(application)

    @property
    def n_guarded(self) -> int:
        """Slices this controller started that are still running."""
        return len(self._watches)

    def detach(self) -> None:
        """Stop listening to the host (it has left the federation)."""
        self.host.load_listener = None

    # -- guarded execution ---------------------------------------------------

    def start_slice(self, work: float, memory_mb: int, label: str,
                    task_id: str) -> TaskExecution:
        """Begin one task slice on this controller's host and guard it.

        The *background* load is what triggers rescheduling — a busy
        VDCE task itself must not count against its own host, so the
        controller reads ``bg_load``, not the run-queue length.  A slice
        started while the host is already over the threshold gets its
        first check one period from now.
        """
        execution = self.host.execute(work=work, memory_mb=memory_mb, label=label)
        watch = _Watch(self, execution, task_id,
                       self.sim.now + self.check_period_s)
        self._watches[execution.id] = watch
        execution.done._subscribe(self.sim, lambda _done: self._drop(watch))
        if self.host.bg_load > self.load_threshold:
            self.checks.arm(watch)
        return execution

    def _drop(self, watch: _Watch) -> None:
        """The slice ended (finished, cancelled, host crashed)."""
        del self._watches[watch.execution.id]
        if watch.armed:
            self.checks.disarm(watch)

    def _on_load_change(self) -> None:
        """The host's background load was just set (:meth:`Host.set_bg_load`).

        Over the threshold, every resident slice needs a check at its
        next boundary.  A change that lands exactly on a boundary is
        seen by the *following* check (DESIGN §5, boundary tie).  A
        check already armed stays armed when the load drops back: it
        re-reads the load when it fires and does nothing.
        """
        if self.host.bg_load <= self.load_threshold:
            return
        now = self.sim.now
        period = self.check_period_s
        for watch in self._watches.values():
            if not watch.armed:
                while watch.boundary <= now:
                    watch.boundary += period
                self.checks.arm(watch)

    def _check(self, watch: _Watch) -> None:
        background = self.host.bg_load
        if background > self.load_threshold:
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.LOAD_CANCEL, source=f"ac:{self.host.name}",
                    task=watch.task_id, host=self.host.name, load=background,
                    threshold=self.load_threshold,
                )
            self.host.cancel(
                watch.execution, cause=f"load>{self.load_threshold}"
            )

"""Simulated hosts: the machines a VDCE site is made of.

A :class:`Host` is a processor-sharing CPU with a *speed* factor
(relative to the paper's "base processor", whose timings populate the
task-performance database), a background load expressed as a run-queue
length (other users' runnable processes, as on the non-dedicated NOWs
of Yan & Zhang [6]), finite memory, and an UP/DOWN failure state.

Task executions carry *work* measured in base-processor seconds; a task
with work ``w`` running alone on an idle host of speed ``s`` finishes in
``w / s``.  With ``n`` VDCE tasks and background load ``b`` the host is
a processor-sharing queue: each task progresses at rate
``s / (n + b)``.  Memory oversubscription multiplies the rate by a
thrashing penalty.  These are exactly the quantities the VDCE
performance-prediction model (paper §3) reasons about, so prediction
accuracy in experiments is a controlled variable, not an accident.

Beyond binary up/down, a host carries a time-varying *slowdown*
factor (performance-fault model): while ``slowdown > 1`` every
resident execution progresses that many times slower, so a straggling
host genuinely stretches task execution instead of crashing it.  The
factor is driven by :class:`~repro.sim.failures.FailureInjector`
(scripted slowdowns and stochastic flapping); ``1.0`` is nominal.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import refuse_non_finite
from repro.sim.fair_share import FairShareServer
from repro.sim.kernel import Signal, SimulationError, Simulator

__all__ = [
    "Host",
    "HostDownError",
    "HostSpec",
    "HostState",
    "Interrupted",
    "TaskExecution",
]

_exec_ids = itertools.count(1)

#: the ``ip`` every stored host record held before the field was retired
RETIRED_IP = "0.0.0.0"


class HostDownError(RuntimeError):
    """Raised into executions whose host failed mid-run."""

    def __init__(self, host_name: str):
        super().__init__(f"host {host_name} went down")
        self.host_name = host_name


class HostState(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class HostSpec:
    """Static attributes of a host, as stored in the resource-performance DB.

    Mirrors the paper's resource attribute list: "host name, IP address,
    architecture type, OS type, total memory size of the machine, recent
    workload measurements, and available memory size" (§3) — all but the
    IP address, which nothing in a simulated federation reads.
    """

    name: str
    speed: float = 1.0  # relative to the base processor
    memory_mb: int = 256
    arch: str = "sparc"
    os: str = "solaris"
    #: rate multiplier applied while resident memory exceeds memory_mb
    thrash_factor: float = 0.25

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.speed <= 0:
            raise ValueError(f"host {self.name!r}: speed must be positive")
        if self.memory_mb <= 0:
            raise ValueError(f"host {self.name!r}: memory_mb must be positive")
        if not self.arch or not self.os:
            raise ValueError(f"host {self.name!r}: arch/os must be non-empty")
        if not (0.0 < self.thrash_factor <= 1.0):
            raise ValueError(f"host {self.name!r}: thrash_factor must be in (0, 1]")

    @classmethod
    def from_record(cls, record: Dict[str, Any], source: str) -> "HostSpec":
        """The spec a stored host record (a repository snapshot's or a
        ``meta.json``'s) describes.  A record written before ``ip`` was
        retired holds ``"ip": "0.0.0.0"``, the value every host had; it
        loads, and any other value is refused, naming ``source``."""
        fields = dict(record)
        held = fields.pop("ip", RETIRED_IP)
        if held != RETIRED_IP:
            raise ValueError(
                f"{source}: host {fields.get('name')!r} has ip={held!r}, but "
                f"hosts keep no IP address; only the retired "
                f"ip={RETIRED_IP!r} loads")
        return cls(**fields)


class TaskExecution:
    """One task running (or queued to run) on a host.

    ``done`` is a :class:`Signal` that succeeds, with no value (no cycle),
    when the work completes, or fails with :class:`HostDownError` /
    cancellation errors.  ``cpu_time`` accumulates virtual seconds of
    wall time during which the execution was resident on the host.
    """

    def __init__(self, host: "Host", work: float, memory_mb: int, label: str = ""):
        self.id = next(_exec_ids)
        self.host = host
        self.work = float(work)
        self.remaining = float(work)
        self.memory_mb = int(memory_mb)
        self.label = label or f"exec-{self.id}"
        self.started_at = host.sim.now
        self.finished_at: Optional[float] = None
        self.done: Signal = host.sim.signal(f"{host.spec.name}:{self.label}:done")

    @property
    def elapsed(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.host.sim.now
        return end - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskExecution({self.label!r} on {self.host.spec.name!r}, "
            f"remaining={self.remaining:.3f}/{self.work:.3f})"
        )


class Host(FairShareServer):
    """A simulated machine with processor-sharing execution semantics."""

    #: work (base-processor seconds) below which an execution is done:
    #: a nanosecond of base-processor time, far under any task's work
    DONE_BELOW = 1e-9

    def __init__(self, sim: Simulator, spec: HostSpec, site_name: str = ""):
        super().__init__(sim)
        self.spec = spec
        self.site_name = site_name
        self.state = HostState.UP
        self.bg_load: float = 0.0
        #: performance-fault factor: > 1 stretches every resident
        #: execution by that multiple (1.0 = nominal)
        self.slowdown: float = 1.0
        #: sum of ``memory_mb`` over ``_running``, kept at every mutation
        #: so a monitor report or a settle never iterates the residents
        self._resident_mb = 0
        #: bumped by every change to what a monitor reads (load, memory,
        #: up/down) or to when its report leaves (slowdown)
        self.epoch = 0
        #: called (no arguments) whenever :meth:`set_bg_load` has set a
        #: new background load — the Application Controller's load watch
        self.load_listener: Optional[Callable[[], None]] = None
        #: counters for experiments
        self.completed_count = 0
        self.failed_count = 0

    # -- observable metrics (what the Monitor daemon measures) -----------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_running(self) -> int:
        return len(self._running)

    def load_average(self) -> float:
        """Run-queue length: background load + resident VDCE tasks.

        This is the "recent workload measurement" the Monitor daemon
        periodically reports upward (paper §4.1).
        """
        return self.bg_load + len(self._running)

    def available_memory_mb(self) -> int:
        return max(0, self.spec.memory_mb - self._resident_mb)

    def is_up(self) -> bool:
        return self.state == HostState.UP

    # -- execution ---------------------------------------------------------

    def per_task_rate(self) -> float:
        """Work units per virtual second delivered to each resident task."""
        if self.state is HostState.DOWN or not self._running:
            return 0.0
        rate = self.spec.speed / (self.bg_load + len(self._running))
        if self._resident_mb > self.spec.memory_mb:
            rate *= self.spec.thrash_factor
        if self.slowdown > 1.0:
            rate /= self.slowdown
        return rate

    _rate = per_task_rate

    def _on_finish(self, execution: TaskExecution) -> None:
        self._resident_mb -= execution.memory_mb
        self.epoch += 1
        self.completed_count += 1

    def execute(self, work: float, memory_mb: int = 0, label: str = "") -> TaskExecution:
        """Begin executing ``work`` base-processor seconds on this host."""
        if work < 0:
            raise SimulationError(f"negative work: {work}")
        if self.state is HostState.DOWN:
            raise HostDownError(self.spec.name)
        self._settle()
        self.epoch += 1
        execution = TaskExecution(self, work, memory_mb, label)
        self._running.append(execution)
        self._resident_mb += execution.memory_mb
        if execution.remaining <= 0.0:
            # Zero-work tasks complete immediately (but asynchronously).
            self._running.remove(execution)
            execution.finished_at = self.sim.now
            self._on_finish(execution)
            self.sim.call_at(self.sim.now, execution.done.succeed)
        self._reschedule_completion()
        return execution

    def cancel(self, execution: TaskExecution, cause: Any = None) -> None:
        """Abort a running execution (Application Controller rescheduling)."""
        if execution not in self._running:
            return
        self._settle()
        self.epoch += 1
        self._running.remove(execution)
        self._resident_mb -= execution.memory_mb
        execution.finished_at = self.sim.now
        self.failed_count += 1
        execution.done.fail(
            cause if isinstance(cause, BaseException) else Interrupted(cause)
        )
        self._reschedule_completion()

    def preempt_all(self, cause: Any = None) -> int:
        """Cancel every resident execution (graceful-drain preemption).

        Returns the number of executions evicted; each fails its
        ``done`` signal like an individual :meth:`cancel`, so owners
        observe the same :class:`Interrupted` they would after an
        Application Controller termination.
        """
        victims = list(self._running)
        for execution in victims:
            self.cancel(execution, cause)
        return len(victims)

    def set_bg_load(self, value: float) -> None:
        """Update background load (driven by a workload generator process)."""
        if value < 0:
            raise SimulationError(f"negative background load: {value}")
        self._settle()
        self.epoch += 1
        self.bg_load = float(value)
        # before the completion is re-timed: a load check armed by this
        # change must go on the calendar ahead of a completion landing on
        # the same instant (DESIGN §5 decision 7, completion tie)
        if self.load_listener is not None:
            self.load_listener()
        self._reschedule_completion()

    def set_slowdown(self, factor: float) -> None:
        """Change the performance-fault factor (1.0 restores nominal).

        Progress accrued so far is settled first, so an execution that
        ran nominal for a while and then straggles stretches only its
        remaining work — the factor is genuinely time-varying.
        """
        if factor < 1.0:
            raise SimulationError(f"slowdown factor must be >= 1, got {factor}")
        if factor == self.slowdown:
            return
        self._settle()
        self.epoch += 1
        self.slowdown = float(factor)
        self._reschedule_completion()

    # -- failures ------------------------------------------------------------

    def fail(self) -> None:
        """Crash the host: all resident executions fail with HostDownError."""
        if self.state is HostState.DOWN:
            return
        self._settle()
        self.epoch += 1
        self.state = HostState.DOWN
        victims, self._running = self._running, []
        self._resident_mb = 0
        for execution in victims:
            execution.finished_at = self.sim.now
            self.failed_count += 1
            execution.done.fail(HostDownError(self.spec.name))
        self._reschedule_completion()

    def recover(self) -> None:
        if self.state is HostState.UP:
            return
        self._last_settle = self.sim.now
        self.epoch += 1
        self.state = HostState.UP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Host({self.spec.name!r}, speed={self.spec.speed}, "
            f"state={self.state.value}, load={self.load_average():.2f})"
        )


class Interrupted(RuntimeError):
    """Execution was cancelled by the runtime (e.g. rescheduling)."""

    def __init__(self, cause: Any = None):
        super().__init__(f"execution cancelled: {cause!r}")
        self.cause = cause

"""User-requested runtime services (paper §4.2).

"The VDCE Runtime System provides several user-requested services such
as I/O service, console service, and visualization service."

* :class:`IOService` — "provides either file I/O or URL I/O for the
  inputs of the application tasks": stages a file/URL input onto the
  task's host (a real simulated transfer from the submitting site's
  server) and hands the task a :class:`StagedFile` handle;
* :class:`ConsoleService` — "the user can suspend and restart the
  application execution": a per-application gate the execution
  coordinator checks before launching each task;
* the visualisation service lives in :mod:`repro.viz` and renders
  :class:`~repro.runtime.execution.ApplicationResult` timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.afg.properties import FileSpec
from repro.runtime.integrity import NULL_INTEGRITY
from repro.runtime.stats import RuntimeStats
from repro.sim.kernel import Signal, Simulator
from repro.sim.network import Network
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["ConsoleService", "IOService", "StagedFile"]


@dataclass(frozen=True)
class StagedFile:
    """Opaque handle for a staged input: where it came from and its size."""

    path: str
    size_mb: float


class IOService:
    """File/URL input staging for application tasks.

    "I/O Service provides either file I/O or URL I/O for the inputs of
    the application tasks" — both flavours stage through the same
    transfer machinery; URLs are distinguished for accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        stats: RuntimeStats,
        tracer: Tracer = NULL_TRACER,
        integrity=NULL_INTEGRITY,
    ):
        self.sim = sim
        self.network = network
        self.stats = stats
        self.tracer = tracer
        #: data-integrity manager; NULL_INTEGRITY trusts staged bytes
        self.integrity = integrity
        self.staged_count = 0
        self.staged_mb = 0.0
        self.url_staged_count = 0

    def stage(self, spec: FileSpec, src_host: str, dst_host: str):
        """Generator: move the file to ``dst_host`` and resolve its value.

        Use as ``value = yield from io.stage(spec, src, dst)`` inside a
        kernel process; the transfer rides the real (contended) links.
        """
        if spec.size_mb > 0 or src_host != dst_host:
            transfer = self.network.transfer(
                src_host, dst_host, spec.size_mb, label=f"io:{spec.path}"
            )
            self.stats.data_transfers += 1
            self.stats.data_transferred_mb += spec.size_mb
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.DATA_TRANSFER, source="io",
                    src=src_host, dst=dst_host, size_mb=spec.size_mb,
                    reason="stage",
                )
            yield transfer.done
            # stage-in verification: damaged file payloads never reach
            # a task; _stage_with_retry owns the refetch budget
            self.integrity.verify(
                transfer, "io", f"stage:{spec.path}",
                f"staged file {spec.path!r}", at=f" on {dst_host}",
            )
        self.staged_count += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.FILE_STAGE, source="io",
                path=spec.path, dst=dst_host, size_mb=spec.size_mb,
                url="://" in spec.path,
            )
        self.staged_mb += spec.size_mb
        if "://" in spec.path:
            self.url_staged_count += 1
        return StagedFile(spec.path, spec.size_mb)


class ConsoleService:
    """Suspend/restart gate, per application."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._resume_signals: Dict[str, Signal] = {}
        self.suspend_count = 0

    def suspend(self, application: str) -> None:
        if application in self._resume_signals:
            return  # already suspended
        self._resume_signals[application] = self.sim.signal(
            f"console:resume:{application}"
        )
        self.suspend_count += 1

    def resume(self, application: str) -> None:
        signal = self._resume_signals.pop(application, None)
        if signal is not None:
            signal.succeed()

    def is_suspended(self, application: str) -> bool:
        return application in self._resume_signals

    def wait_if_suspended(self, application: str):
        """What to ``yield from`` to block while the application is
        suspended: nothing when it is not, so the per-task check builds
        no generator.  The wait loops because the user may suspend again
        between resume and the waiter actually running.
        """
        if application not in self._resume_signals:
            return ()
        return self._wait(application)

    def _wait(self, application: str):
        while True:
            signal = self._resume_signals.get(application)
            if signal is None:
                return
            yield signal

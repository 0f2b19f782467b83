"""The fair-share (processor-sharing) server under hosts and links.

DESIGN §2 substitutes the testbed's machines and wires by servers that
divide one capacity equally among their resident jobs: a
:class:`~repro.sim.host.Host` shares CPU speed among executions, a
:class:`~repro.sim.network.Link` shares bandwidth among transfers.  The
bookkeeping is the same and lives here once:

* :meth:`FairShareServer._settle` credits the progress made since the
  last settle to every resident job — called before anything that
  changes the rate (a job joins or leaves, load, slowdown, failure);
* :meth:`FairShareServer._reschedule_completion` re-times the one
  calendar entry that fires when the job closest to done completes —
  that job is kept (``_least``), so an arrival compares one job and
  only losing it costs a pass over the residents;
* :meth:`FairShareServer._tick` is that entry: settle, retire what is
  done, re-time.

A job is any object with a ``remaining`` amount, a ``finished_at`` time
(None until it leaves) and a ``done`` signal.  A subclass supplies its
per-job rate (:meth:`_rate`), the residual below which a job counts as
complete (``DONE_BELOW``, in the job's own unit) and what else happens
when a job retires (:meth:`_on_finish`).

The float operations — ``elapsed * rate``, ``max(0.0, remaining -
credit)``, ``soonest / rate`` — and the order of calendar calls are the
contract: every committed trace hash depends on them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, List, Optional

from repro.sim.kernel import Simulator

__all__ = ["FairShareServer"]

#: progress below this rate is treated as stalled (host down / fully thrashed)
_MIN_RATE = 1e-12


class FairShareServer:
    """Resident jobs progressing at one shared, time-varying rate."""

    #: a job whose ``remaining`` is at or below this is complete
    DONE_BELOW: float

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._running: List[Any] = []
        self._last_settle = sim.now
        self._completion_call: Optional[Any] = None
        #: the resident job with the least ``remaining``; a settle's uniform
        #: credit keeps the order, so only a newcomer can undercut it
        self._least: Optional[Any] = None
        #: virtual seconds during which at least one job was resident
        self.busy_time = 0.0

    def _rate(self) -> float:
        """Units per virtual second delivered to each resident job."""
        raise NotImplementedError

    def _on_finish(self, job: Any) -> None:
        """A job just left ``_running`` complete; ``done`` fires next."""

    def _settle(self) -> None:
        """Credit elapsed progress to every resident job."""
        now = self.sim.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0 or not self._running:
            return
        rate = self._rate()
        self.busy_time += elapsed
        if rate <= 0:
            return
        credit = elapsed * rate
        for job in self._running:
            job.remaining = max(0.0, job.remaining - credit)

    def _reschedule_completion(self) -> None:
        if self._completion_call is not None:
            self._completion_call.cancelled = True
            self._completion_call = None
        running = self._running
        if not running:
            self._least = None
            return
        least = self._least
        if least is None or least.finished_at is not None:
            least = min(running, key=attrgetter("remaining"))
        elif running[-1].remaining < least.remaining:
            least = running[-1]
        self._least = least
        rate = self._rate()
        if rate <= _MIN_RATE:
            return  # stalled: no progress until conditions change
        self._completion_call = self.sim.call_after(
            least.remaining / rate, self._tick)

    def _tick(self) -> None:
        self._completion_call = None
        self._settle()
        threshold = self.DONE_BELOW
        finished = [job for job in self._running if job.remaining <= threshold]
        if not finished and self._running:
            # Float-stall guard: at large virtual times a tiny residual's
            # ETA can be below the clock's ulp, so the next tick would
            # land on the same instant, settle zero progress, and loop
            # forever.  Such residuals are complete by construction.
            rate = self._rate()
            if rate > _MIN_RATE:
                soonest = self._least.remaining
                if self.sim.now + soonest / rate <= self.sim.now:
                    finished = [
                        job for job in self._running if job.remaining <= soonest
                    ]
        for job in finished:
            self._running.remove(job)
            job.remaining = 0.0
            job.finished_at = self.sim.now
            self._on_finish(job)
            job.done.succeed()
        self._reschedule_completion()

"""Priority-aware admission queue — the paper's QoS hook (§1).

The introduction promises "managing the Quality of Service (QoS)
requirements", and the user-accounts database carries a *priority*
field (§3).  This module is where the two meet: applications submitted
to a site enter an admission queue ordered by user priority (higher
first, FIFO within a priority), and at most ``max_concurrent``
applications execute at once.

On top of that baseline, an :class:`AdmissionPolicy` turns the
queue into a bounded, deadline-aware admission controller (the Nimrod/G
discipline: admit against declared deadlines, reject work that provably
cannot be served rather than queueing it forever):

* ``max_queued`` bounds the queue; on overflow the *worst* queued entry
  (lowest priority, then latest deadline, then latest arrival) is shed
  in favour of a better newcomer, or the newcomer itself is rejected —
  deterministically, no RNG.
* per-user token-bucket **rate limits**, driven by the existing users
  DB;
* per-application **deadlines/TTLs**: an entry still queued when its
  TTL or deadline passes is expired in place — it was never going to
  meet its QoS contract, so it fails fast instead of starving others.

Rejections fail the submit :class:`~repro.sim.kernel.Signal` with typed
:class:`AdmissionRejected` / :class:`AdmissionExpired` errors.  Under
the default policy (every check off) behaviour, traces and hashes are
the unbounded queue's; a critical brownout refuses under any policy.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.afg.graph import ApplicationFlowGraph
from repro.errors import refuse_non_finite
from repro.obs.spans import NULL_SPAN, SpanContext, SpanKind
from repro.scheduler.site_scheduler import SiteScheduler
from repro.sim.kernel import Signal, Simulator
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.vdce_runtime import VDCERuntime

__all__ = [
    "AdmissionExpired",
    "AdmissionPolicy",
    "AdmissionQueue",
    "AdmissionRejected",
]


class AdmissionRejected(RuntimeError):
    """The submission was refused at the door (never queued or shed)."""

    def __init__(self, application: str, user: str, reason: str):
        super().__init__(
            f"application {application!r} rejected at admission ({reason})"
        )
        self.application = application
        self.user = user
        self.reason = reason


class AdmissionExpired(RuntimeError):
    """The submission sat queued past its TTL/deadline and was expired."""

    def __init__(self, application: str, user: str, waited_s: float):
        super().__init__(
            f"application {application!r} expired in the admission queue "
            f"after {waited_s:.3f}s"
        )
        self.application = application
        self.user = user
        self.waited_s = waited_s


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounded-admission knobs; every field ``None`` = that check off."""

    #: queue bound; on overflow the worst entry is shed (None = unbounded)
    max_queued: Optional[int] = None
    #: per-user token-bucket refill rate, submissions per second
    user_rate_per_s: Optional[float] = None
    #: default in-queue TTL applied when a submission carries none
    default_ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.max_queued is not None and self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        if self.user_rate_per_s is not None and self.user_rate_per_s <= 0:
            raise ValueError("user_rate_per_s must be positive")
        if self.default_ttl_s is not None and self.default_ttl_s <= 0:
            raise ValueError("default_ttl_s must be positive")


#: token-bucket burst capacity of a rate-limited user
_USER_BURST = 2


class _TokenBucket:
    """Deterministic token bucket on the virtual clock."""

    def __init__(self, rate: float):
        self.rate = rate
        self.burst = float(_USER_BURST)
        self.tokens = self.burst
        self.last = 0.0

    def take(self, now: float) -> bool:
        self.tokens = min(
            self.burst, self.tokens + (now - self.last) * self.rate
        )
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(order=True)
class _Pending:
    sort_key: tuple
    afg: ApplicationFlowGraph = field(compare=False)
    scheduler: Optional[SiteScheduler] = field(compare=False)
    done: Signal = field(compare=False)
    submitted_at: float = field(compare=False, default=0.0)
    execute_payloads: bool = field(compare=False, default=True)
    wait_span: SpanContext = field(compare=False, default=NULL_SPAN)
    user: str = field(compare=False, default="")
    priority: int = field(compare=False, default=0)
    deadline_at: Optional[float] = field(compare=False, default=None)
    state: str = field(compare=False, default="queued")

    @property
    def badness(self) -> tuple:
        """Shed order: lowest priority, latest deadline, latest arrival.

        The queued entry with the *maximum* badness is the overflow
        victim; a newcomer only displaces it if strictly better.
        """
        deadline = self.deadline_at if self.deadline_at is not None else math.inf
        return (-self.priority, deadline, self.sort_key[1])


class AdmissionQueue:
    """Serialise application launches by priority at one site."""

    def __init__(self, runtime: "VDCERuntime", max_concurrent: int = 1,
                 site: Optional[str] = None,
                 policy: AdmissionPolicy = AdmissionPolicy()):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.site = site or runtime.default_site
        #: trace/span source of everything this queue emits
        self._src = f"admission:{self.site}"
        self.max_concurrent = max_concurrent
        self.policy = policy
        self._heap: List[_Pending] = []
        self._seq = itertools.count()
        self._running = 0
        self.admitted_order: List[str] = []
        #: deepest the queue ever got (the I10 bound witness)
        self.peak_queued = 0
        #: every shed/expiry, in order: time, application, user, reason
        self.shed_log: List[Dict[str, Any]] = []
        self._buckets: Dict[str, _TokenBucket] = {}
        runtime.admission_queues.append(self)

    def submit(
        self,
        afg: ApplicationFlowGraph,
        user: str,
        scheduler: Optional[SiteScheduler] = None,
        execute_payloads: bool = True,
        deadline_s: Optional[float] = None,
        ttl_s: Optional[float] = None,
    ) -> Signal:
        """Enqueue an application under ``user``'s priority.

        Returns a signal that succeeds with the
        :class:`~repro.runtime.execution.ApplicationResult` when the
        application finishes (or fails with its error — including
        :class:`AdmissionRejected` / :class:`AdmissionExpired` when the
        admission policy sheds it).  ``deadline_s`` / ``ttl_s`` are
        relative to now; an entry still queued when either passes is
        expired in place.
        """
        account = self.runtime.repositories[self.site].users.get(user)
        done = self.sim.signal(f"admission:{afg.name}")
        now = self.sim.now
        policy = self.policy
        refusal = self._refusal(user, now)
        if refusal is not None:
            return self._reject(afg, user, refusal, done)

        deadline_at = now + deadline_s if deadline_s is not None else None
        entry = _Pending(
            # heap is a min-heap: negate priority so higher goes first
            sort_key=(-account.priority, next(self._seq)),
            afg=afg,
            scheduler=scheduler,
            done=done,
            submitted_at=now,
            execute_payloads=execute_payloads,
            user=user,
            priority=account.priority,
            deadline_at=deadline_at,
        )
        if (policy.max_queued is not None
                and len(self._heap) >= policy.max_queued):
            victim = max(self._heap, key=lambda e: e.badness)
            if victim.badness > entry.badness:
                self._drop(victim, "shed", "queue_full")
            else:
                return self._reject(afg, user, "queue_full", done)
        spans = self.runtime.spans
        entry.wait_span = spans.open(
            SpanKind.ADMISSION_WAIT, afg.name,
            parent=spans.root_of(afg.name, source=self._src),
            source=self._src, priority=account.priority,
        )
        heapq.heappush(self._heap, entry)
        self.peak_queued = max(self.peak_queued, len(self._heap))
        expire_at = None
        if ttl_s is not None:
            expire_at = now + ttl_s
        elif policy.default_ttl_s is not None:
            expire_at = now + policy.default_ttl_s
        if deadline_at is not None:
            expire_at = (
                deadline_at if expire_at is None
                else min(expire_at, deadline_at)
            )
        if expire_at is not None:
            self.sim.call_at(expire_at, lambda: self._expire(entry))
        self.sim.call_at(now, self._dispatch)
        return done

    def _refusal(self, user: str, now: float) -> Optional[str]:
        """Why the policy turns ``user`` away at the door, or None."""
        policy = self.policy
        if self.runtime.brownout.refuse_new_work():
            return "brownout"
        if policy.user_rate_per_s is not None:
            bucket = self._buckets.get(user)
            if bucket is None:
                bucket = self._buckets[user] = _TokenBucket(
                    policy.user_rate_per_s)
                bucket.last = now
            if not bucket.take(now):
                return "rate"
        return None

    @property
    def queued(self) -> int:
        return len(self._heap)

    @property
    def running(self) -> int:
        return self._running

    # -- shedding ---------------------------------------------------------

    def _record_shed(self, afg: ApplicationFlowGraph, user: str,
                     reason: str, waited_s: float = 0.0) -> None:
        self.shed_log.append({
            "time": round(self.sim.now, 9),
            "application": afg.name,
            "user": user,
            "reason": reason,
        })
        self.runtime.tracer.emit(
            EventKind.SHED, source=self._src,
            application=afg.name, user=user, reason=reason,
            waited_s=round(waited_s, 9),
        )

    def _reject(self, afg: ApplicationFlowGraph, user: str, reason: str,
                done: Signal) -> Signal:
        """Refuse a submission at the door (it never entered the queue)."""
        self._record_shed(afg, user, reason)
        done.fail(AdmissionRejected(afg.name, user, reason))
        return done

    def _drop(self, entry: _Pending, state: str, reason: str) -> None:
        """Evict a queued entry: ``"shed"`` (overflow preemption by a
        better arrival) or ``"expired"`` (its TTL/deadline passed)."""
        self._heap.remove(entry)
        heapq.heapify(self._heap)
        entry.state = state
        waited = self.sim.now - entry.submitted_at
        self._record_shed(entry.afg, entry.user, reason, waited_s=waited)
        spans = self.runtime.spans
        spans.close(
            entry.wait_span, source=self._src, status=state, wait_s=waited
        )
        spans.close_root(entry.afg.name, source=self._src, status=state)
        entry.done.fail(
            AdmissionExpired(entry.afg.name, entry.user, waited)
            if state == "expired"
            else AdmissionRejected(entry.afg.name, entry.user, reason)
        )

    def _expire(self, entry: _Pending) -> None:
        """TTL/deadline timer: expire the entry if it is still queued."""
        if entry.state == "queued" and entry in self._heap:
            self._drop(entry, "expired", "expired")

    # -- dispatch ---------------------------------------------------------

    def _concurrency_limit(self) -> int:
        return self.runtime.brownout.concurrency_limit(self.max_concurrent)

    def _dispatch(self) -> None:
        while self._heap and self._running < self._concurrency_limit():
            entry = heapq.heappop(self._heap)
            entry.state = "running"
            self._running += 1
            self.admitted_order.append(entry.afg.name)
            wait = self.sim.now - entry.submitted_at
            stats = self.runtime.stats
            stats.queue_wait_s += wait
            stats.queue_waits[entry.afg.name] = wait
            self.runtime.spans.close(
                entry.wait_span, source=self._src, wait_s=wait
            )
            self.sim.process(self._run_entry(entry),
                             name=f"admitted:{entry.afg.name}")

    def _run_entry(self, entry: _Pending):
        try:
            result = yield from self.runtime.run_process(
                entry.afg, entry.scheduler, self.site, entry.execute_payloads
            )
        except Exception as exc:  # noqa: BLE001 - surfaced via the signal
            self._running -= 1
            self.sim.call_at(self.sim.now, self._dispatch)
            self.runtime.spans.abandon_app(
                entry.afg.name, reason=type(exc).__name__,
                source=self._src,
            )
            entry.done.fail(exc)
            return
        self._running -= 1
        self.sim.call_at(self.sim.now, self._dispatch)
        entry.done.succeed(result)

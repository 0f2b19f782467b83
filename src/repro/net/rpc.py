"""Control-plane RPC over the simulated network: timeouts and retries.

The paper's prototype assumed a friendly campus LAN: the AFG multicast
(Fig. 2 step 3), the bid replies, the allocation-table distribution and
the Group Manager's failure reports were all fire-and-forget.  The grid
middleware that followed VDCE treats unreachable sites and lossy
control messages as the common case, so this module wraps every
control-plane exchange in the standard machinery:

* a per-message **timeout** (the sender stops waiting);
* **bounded retries** with **exponential backoff** and deterministic
  jitter, drawn from per-peer RNG streams (``rpc:<src>-><dst>``) so a
  retry on one path never perturbs another path's draws;
* **fail-fast** on a link known to be down (a connect error is
  immediate, unlike a lost datagram which burns the full timeout).

Message loss and extra delay come from the per-link ``loss_prob`` /
``extra_delay_s`` knobs on :class:`repro.sim.network.Link` — they apply
only to control messages sent through this layer, never to bulk data
transfers.  With the default lossless links and all links up, a
:meth:`ControlPlane.request` costs exactly one request transfer plus
one reply transfer and draws no random numbers, so fault-free runs keep
their fault-free timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import refuse_non_finite
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPANS,
    SpanContext,
    SpanKind,
    SpanRecorder,
)
from repro.sim.failures import intervals
from repro.sim.kernel import AnyOf, Simulator, Timeout
from repro.sim.network import LinkDownError, Network
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "BreakerPolicy",
    "BreakerRegistry",
    "CircuitBreaker",
    "CircuitOpenError",
    "ControlPlane",
    "ManagerUnavailable",
    "NULL_BREAKERS",
    "RetryPolicy",
    "RpcError",
    "RpcTimeout",
]


class RpcError(RuntimeError):
    """Base class for control-plane RPC failures."""


class RpcTimeout(RpcError):
    """All attempts of a request timed out or were lost."""

    def __init__(self, label: str, attempts: int):
        super().__init__(f"rpc {label!r} failed after {attempts} attempt(s)")
        self.label = label
        self.attempts = attempts


class ManagerUnavailable(RpcError):
    """The target manager process is crashed.

    Raised by Site/Group Manager entry points while crashed.  Inside
    :meth:`ControlPlane.request` a handler raising this is treated the
    same as an undelivered request — nobody answered the port — so the
    attempt retries and eventually surfaces as :class:`RpcTimeout`,
    which the callers already turn into site exclusion.  Raised
    *outside* an RPC (a local call on the same site) it propagates as a
    typed failure the chaos harness and the checkpoint-restart path
    catch.
    """

    def __init__(self, manager: str, role: str = "site manager"):
        super().__init__(f"{role} {manager!r} is crashed")
        self.manager = manager
        self.role = role


class CircuitOpenError(RpcTimeout):
    """The circuit to the destination site is open: fail fast, no wire.

    Subclasses :class:`RpcTimeout` (with ``attempts == 0``) so every
    existing caller that turns an RPC timeout into site exclusion
    handles a fast-failed request identically — the breaker just
    delivers the verdict without burning timeouts and retries first.
    """

    def __init__(self, label: str, src_site: str, dst_site: str):
        RpcError.__init__(
            self,
            f"rpc {label!r} fast-failed: circuit {src_site}->{dst_site} open",
        )
        self.label = label
        self.attempts = 0
        self.src_site = src_site
        self.dst_site = dst_site


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-destination circuit-breaker knobs.

    A breaker trips **open** when, over the last ``window`` completed
    attempts (given at least ``min_samples``), the failure rate reaches
    ``failure_threshold``.  While open every request fast-fails without
    touching the wire, bounding retry amplification during partitions.
    After ``open_duration_s`` the breaker goes **half-open** and lets
    exactly one probe request through: success closes the circuit,
    failure re-opens it for another full ``open_duration_s``.  All
    transitions are driven by the virtual clock and the deterministic
    request stream — no RNG.
    """

    window: int = 6
    failure_threshold: float = 0.5
    min_samples: int = 4
    open_duration_s: float = 10.0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not (0.0 < self.failure_threshold <= 1.0):
            raise ValueError("failure_threshold must be in (0, 1]")
        if not (1 <= self.min_samples <= self.window):
            raise ValueError("need 1 <= min_samples <= window")
        if self.open_duration_s <= 0:
            raise ValueError("open_duration_s must be positive")


class CircuitBreaker:
    """Failure-rate window and state machine for one (src, dst) pair."""

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = "closed"
        self.opened_at = 0.0
        self._results: List[bool] = []  # True = attempt succeeded
        self._probe_inflight = False

    def allow(self, now: float) -> bool:
        """May a request start now?  Drives open -> half-open."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if now >= self.opened_at + self.policy.open_duration_s:
                self.state = "half_open"
                self._probe_inflight = True
                return True
            return False
        # half-open: one probe at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self, now: float) -> None:
        self._probe_inflight = False
        self._results.clear()
        self.state = "closed"

    def record_failure(self, now: float) -> bool:
        """Account one failed request; True if the breaker (re-)opened."""
        self._probe_inflight = False
        if self.state == "half_open":
            self.state = "open"
            self.opened_at = now
            self._results.clear()
            return True
        if self.state == "open":
            return False
        self._results.append(False)
        if len(self._results) > self.policy.window:
            del self._results[0]
        failures = self._results.count(False)
        if (len(self._results) >= self.policy.min_samples
                and failures / len(self._results)
                >= self.policy.failure_threshold):
            self.state = "open"
            self.opened_at = now
            self._results.clear()
            return True
        return False

    def record_closed_success(self) -> None:
        """A success observed while closed feeds the window."""
        self._results.append(True)
        if len(self._results) > self.policy.window:
            del self._results[0]


class BreakerRegistry:
    """All circuit breakers of one deployment, keyed by (src, dst) site.

    Keeps the transition log and the per-link send log that the chaos
    invariant I11 audits (*open circuit => no message sent on that link
    that round*) and emits one ``breaker_*`` event per transition (the
    breaker-state gauge folds them).
    """

    _STATE_EVENT = {
        "closed": EventKind.BREAKER_CLOSE,
        "half_open": EventKind.BREAKER_HALF_OPEN,
        "open": EventKind.BREAKER_OPEN,
    }

    def __init__(self, sim: Simulator, policy: BreakerPolicy = BreakerPolicy(),
                 tracer: Tracer = NULL_TRACER):
        self.sim = sim
        self.policy = policy
        self.tracer = tracer
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        #: (time, src, dst, new_state) per transition
        self.transitions: List[Tuple[float, str, str, str]] = []
        #: (time, src, dst) per request message put on the wire
        self.send_log: List[Tuple[float, str, str]] = []
        self.fast_fails = 0

    def for_requests(self) -> Optional["BreakerRegistry"]:
        """The registry a WAN request consults: this one."""
        return self

    def of(self, src_site: str, dst_site: str) -> CircuitBreaker:
        key = (src_site, dst_site)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(self.policy)
        return breaker

    def _note_transition(self, src: str, dst: str, old: str, new: str) -> None:
        if new == old:
            return
        self.transitions.append((self.sim.now, src, dst, new))
        self.tracer.emit(
            self._STATE_EVENT[new], source=f"breaker:{src}->{dst}",
            src=src, dst=dst, previous=old,
        )

    def allow(self, src_site: str, dst_site: str) -> bool:
        breaker = self.of(src_site, dst_site)
        old = breaker.state
        allowed = breaker.allow(self.sim.now)
        self._note_transition(src_site, dst_site, old, breaker.state)
        if not allowed:
            self.fast_fails += 1
        return allowed

    def note_send(self, src_site: str, dst_site: str) -> None:
        self.send_log.append((self.sim.now, src_site, dst_site))

    def record_success(self, src_site: str, dst_site: str) -> None:
        breaker = self.of(src_site, dst_site)
        old = breaker.state
        if old == "closed":
            breaker.record_closed_success()
        else:
            breaker.record_success(self.sim.now)
        self._note_transition(src_site, dst_site, old, breaker.state)

    def record_failure(self, src_site: str, dst_site: str) -> None:
        breaker = self.of(src_site, dst_site)
        old = breaker.state
        breaker.record_failure(self.sim.now)
        self._note_transition(src_site, dst_site, old, breaker.state)

    def open_intervals(
        self, end_time: float
    ) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
        """Per-link [open, close-or-half-open) windows from the log."""
        paired = intervals(
            ((time, (src, dst), state)
             for time, src, dst, state in self.transitions),
            ("open",), ("closed", "half_open"),
        )
        return {
            key: [(opened, end_time if closed is None else closed)
                  for opened, closed in windows]
            for key, windows in paired.items()
        }

    def open_violations(self, end_time: float) -> List[str]:
        """I11 audit: sends that happened strictly inside an open window.

        A send at the very instant the breaker opened preceded the
        opening (same-timestamp ordering), and a send at the window's
        end is the half-open probe — both are excluded by the strict
        inequalities.
        """
        violations: List[str] = []
        windows = self.open_intervals(end_time)
        for time, src, dst in self.send_log:
            for start, end in windows.get((src, dst), []):
                if start < time < end:
                    violations.append(
                        f"message sent {src}->{dst} at {time:.3f} while the "
                        f"circuit was open ({start:.3f}..{end:.3f})"
                    )
        return violations


class NullBreakers:
    """Breakers off: nothing logged or fast-failed, nothing to consult."""

    transitions: Tuple[Tuple[float, str, str, str], ...] = ()
    send_log: Tuple[Tuple[float, str, str], ...] = ()
    fast_fails = 0

    def for_requests(self) -> None:
        return None

    def open_violations(self, end_time: float) -> List[str]:
        return []


#: the shared "off" — safe because it holds no state
NULL_BREAKERS = NullBreakers()


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs for one class of control messages.

    ``backoff(attempt, u)`` returns the pause after the given (1-based)
    failed attempt: ``base * factor**(attempt-1)`` stretched by up to
    ``jitter_frac`` using the caller-supplied uniform draw ``u`` — the
    jitter source stays in the caller's RNG stream, keeping runs
    deterministic.
    """

    timeout_s: float = 1.0
    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_frac: float = 0.2

    def __post_init__(self) -> None:
        # an infinite timeout waits out a lost message: never retried
        refuse_non_finite(self, unbounded=("timeout_s",))
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base_s >= 0 and backoff_factor >= 1 required")
        if not (0.0 <= self.jitter_frac <= 1.0):
            raise ValueError("jitter_frac must be in [0, 1]")

    def backoff(self, attempt: int, u: float) -> float:
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter_frac * float(u))


#: what :meth:`ControlPlane._attempt` returns when nobody answered in time
_NO_REPLY = object()


class _Call(NamedTuple):
    """What every attempt of one :meth:`ControlPlane.request` shares."""

    src_host: str
    dst_host: str
    src_site: str
    dst_site: str
    handler: Callable[[], Any]
    payload_mb: float
    reply_mb: Any
    label: str
    policy: RetryPolicy
    transport: str
    on_send: Optional[Callable[[int], None]]
    on_reply: Optional[Callable[[int], None]]
    #: the request's ``rpc`` span (NULL_SPAN when the caller gave none)
    span: SpanContext
    #: the deployment's breaker registry on a WAN pair, else None
    breaker: Optional[BreakerRegistry]
    #: trace/span source of the sending side
    source: str
    #: per-peer stream, by name: resolved only where a value is drawn
    rng_name: str


class ControlPlane:
    """Request/reply and notification messaging for one deployment.

    All methods are pure simulation constructs: :meth:`request` is a
    generator to ``yield from`` inside a simulated process, and
    :meth:`notify_lan` is callback-based (no process spawn) so the
    high-rate Group Manager -> Site Manager path stays cheap.

    Causal spans: a request given a parent
    :class:`~repro.obs.spans.SpanContext` becomes an ``rpc`` span under
    it, with one ``rpc_attempt`` child per attempt (ambient at the
    destination while the handler runs, so server-side spans parent
    correctly) and a ``retry_backoff`` child per backoff pause.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        stats,
        policy: RetryPolicy = RetryPolicy(),
        tracer: Tracer = NULL_TRACER,
        spans: SpanRecorder = NULL_SPANS,
        breakers: BreakerRegistry = NULL_BREAKERS,
    ):
        self.sim = sim
        self.network = network
        #: the deployment's :class:`~repro.runtime.stats.RuntimeStats`
        self.stats = stats
        self.policy = policy
        self.tracer = tracer
        self.spans = spans
        #: the recorder's open / close / run, kept (no-ops when off)
        self._open, self._close, self._run = spans.hooks()
        #: per-destination circuit breakers a WAN request consults;
        #: None when breakers are off, so an attempt makes no breaker call
        self._wan_breakers = breakers.for_requests()

    # -- request/reply -----------------------------------------------------

    def request(
        self,
        src_host: str,
        dst_host: str,
        handler: Callable[[], Any],
        payload_mb: float = 0.0,
        reply_mb: Any = 0.0,
        label: str = "rpc",
        policy: Optional[RetryPolicy] = None,
        transport: str = "transfer",
        on_send: Optional[Callable[[int], None]] = None,
        on_reply: Optional[Callable[[int], None]] = None,
        span: SpanContext = NULL_SPAN,
    ):
        """Round-trip RPC generator; returns ``handler()``'s value.

        ``handler`` runs at the destination once the request arrives; if
        it returns a generator, the generator is driven inside the RPC
        (server-side work that takes simulated time).  Retries re-run it
        — at-least-once semantics, like every retried RPC; handlers must
        be idempotent.  ``reply_mb`` may be a callable mapping the
        handler's value to a size.  ``transport`` is ``"transfer"``
        (bandwidth-shared message) or ``"latency"`` (latency-only
        signalling, e.g. channel setup).  ``on_send`` / ``on_reply`` run
        once per attempt whose request/reply message is actually put on
        the wire — the hook point for per-message counters and trace
        events.  ``span`` is the parent of the request's span tree (see
        the class docstring); under the default nothing is recorded.

        Raises :class:`RpcTimeout` when every attempt fails.
        """
        policy = policy or self.policy
        src_site = self.network.site_of(src_host)
        dst_site = self.network.site_of(dst_host)
        source = f"rpc:{src_site}"
        rng_name = f"rpc:{src_site}->{dst_site}"
        rpc_span = self._open(
            SpanKind.RPC, span.app, span, source, label=label, dst=dst_site,
        )
        # WAN circuit breaker: same-site traffic has none
        breaker = self._wan_breakers if src_site != dst_site else None
        call = _Call(
            src_host, dst_host, src_site, dst_site, handler, payload_mb,
            reply_mb, label, policy, transport, on_send, on_reply, rpc_span,
            breaker, source, rng_name,
        )
        for attempt in range(1, policy.max_attempts + 1):
            if breaker is not None and not breaker.allow(src_site, dst_site):
                # the circuit is open: fail fast, nothing on the wire
                self._give_up(
                    call, "circuit_open", attempt - 1,
                    CircuitOpenError(label, src_site, dst_site),
                    circuit_open=True,
                )
            value = yield from self._attempt(call, attempt)
            if value is not _NO_REPLY:
                return value
            self.stats.rpc_retries += 1
            self.tracer.emit(
                EventKind.RPC_RETRY, source=source,
                label=label, attempt=attempt, dst=dst_site,
            )
            if attempt < policy.max_attempts:
                delay = policy.backoff(
                    attempt, float(self.sim.rng(rng_name).uniform())
                )
                backoff_span = self._open(
                    SpanKind.RETRY_BACKOFF, rpc_span.app, rpc_span, source,
                    label=label, attempt=attempt,
                )
                yield Timeout(delay)
                self._close(backoff_span, source)
        self.stats.rpc_timeouts += 1
        self._give_up(
            call, "timeout", policy.max_attempts,
            RpcTimeout(label, policy.max_attempts),
        )

    def _give_up(self, call: _Call, status: str, attempts: int,
                 error: RpcTimeout, **why: Any) -> None:
        """End the request without an answer: span, trace event, raise."""
        self._close(call.span, call.source, status, attempts=attempts)
        self.tracer.emit(
            EventKind.RPC_TIMEOUT, source=call.source, label=call.label,
            dst=call.dst_site, attempts=attempts, **why,
        )
        raise error

    def _attempt(self, call: _Call, attempt: int):
        """One attempt: request leg, the handler at the destination, reply leg.

        Returns the handler's value, or :data:`_NO_REPLY` when the
        attempt is to be retried (a leg was lost or late, or the
        destination manager is crashed).  A typed refusal (e.g.
        ``SiteOverloaded``) propagates: the remote answered, just not
        with a value.
        """
        started = self.sim.now
        attempt_span = self._open(
            SpanKind.RPC_ATTEMPT, call.span.app, call.span, call.source,
            label=call.label, attempt=attempt,
        )
        if call.on_send is not None:
            call.on_send(attempt)
        if call.breaker is not None:
            call.breaker.note_send(call.src_site, call.dst_site)
        delivered = yield from self._leg(
            call, call.src_host, call.dst_host, call.payload_mb, "req", started
        )
        if delivered:
            try:
                # the handler's value, or the server-side work to drive
                value = self._run(attempt_span, call.handler)
                if isinstance(value, GeneratorType):
                    value = yield from value
            except ManagerUnavailable:
                # the destination manager is crashed: no reply ever
                # comes back, exactly like a lost datagram — burn the
                # rest of this attempt's deadline and retry
                remaining = call.policy.timeout_s - (self.sim.now - started)
                if remaining > 0:
                    yield Timeout(remaining)
            except Exception:
                self._settle(call, attempt_span, attempt, "error")
                raise
            else:
                if call.on_reply is not None:
                    call.on_reply(attempt)
                reply_mb = call.reply_mb
                acked = yield from self._leg(
                    call, call.dst_host, call.src_host,
                    reply_mb(value) if callable(reply_mb) else reply_mb,
                    "rep", started,
                )
                if acked:
                    self._settle(call, attempt_span, attempt, "ok")
                    return value
        self._settle(call, attempt_span, attempt, "failed")
        return _NO_REPLY

    def _settle(self, call: _Call, attempt_span: SpanContext, attempt: int,
                status: str) -> None:
        """Close an attempt's spans and tell the breaker how it went.

        ``"failed"`` (nobody answered) leaves the request's own span
        open for the next attempt; ``"ok"`` and ``"error"`` (a typed
        refusal is still an answer) end the request.
        """
        self._close(attempt_span, call.source, status)
        if status != "failed":
            self._close(call.span, call.source, status, attempts=attempt)
        if call.breaker is not None:
            if status == "failed":
                call.breaker.record_failure(call.src_site, call.dst_site)
            else:
                call.breaker.record_success(call.src_site, call.dst_site)

    def _leg(self, call: _Call, src, dst, size_mb, leg, started):
        """One message leg; True iff delivered within the attempt deadline.

        The per-peer loss stream is materialised only when the link is
        lossy.
        """
        remaining = call.policy.timeout_s - (self.sim.now - started)
        if remaining <= 0:
            return False
        link = self.network.link_between(src, dst)
        if link is not None:
            if not link.up:
                return False  # connect error: fail fast, no time burned
            if (link.loss_prob > 0.0
                    and float(self.sim.rng(call.rng_name).uniform())
                    < link.loss_prob):
                # the message vanishes; the sender finds out via the timer
                yield Timeout(remaining)
                return False
            if link.extra_delay_s > 0.0:
                delay = min(link.extra_delay_s, remaining)
                yield Timeout(delay)
                remaining -= delay
                if remaining <= 0:
                    return False
        if call.transport == "latency":
            latency = link.spec.latency_s if link is not None else 0.0
            if latency > remaining:
                yield Timeout(remaining)
                return False
            yield Timeout(latency)
            return link is None or link.up
        transfer = self.network.transfer(
            src, dst, size_mb, label=f"{call.label}:{leg}"
        )
        try:
            index, _value = yield AnyOf([transfer.done, Timeout(remaining)])
        except LinkDownError:
            return False
        return index == 0

    # -- one-way notifications --------------------------------------------

    def notify_lan(
        self,
        link,
        deliver: Callable[[], None],
        latency_s: float,
        label: str = "notify",
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        """One-way intra-site message with loss-aware bounded retries.

        Callback-based (no kernel process): on lossless links this is
        exactly ``call_after(latency_s, deliver)`` — the Group Manager's
        original notification path — with zero extra events or RNG
        draws.  Under loss or a down LAN it retries with backoff, giving
        up silently after ``max_attempts`` (one-way messages have no
        caller to raise into; the periodic echo loop re-notifies).
        """
        policy = policy or self.policy
        source = rng_name = f"rpc:{label}"

        def attempt(n: int) -> None:
            down = link is not None and not link.up
            loss_p = link.loss_prob if link is not None else 0.0
            lost = down or (
                loss_p > 0.0 and float(self.sim.rng(rng_name).uniform()) < loss_p
            )
            if not lost:
                extra = link.extra_delay_s if link is not None else 0.0
                self.sim.call_after(latency_s + extra, deliver)
                return
            self.stats.rpc_retries += 1
            self.tracer.emit(
                EventKind.RPC_RETRY, source=source,
                label=label, attempt=n, one_way=True,
            )
            if n < policy.max_attempts:
                backoff = policy.backoff(n, float(self.sim.rng(rng_name).uniform()))
                self.sim.call_after(backoff, lambda: attempt(n + 1))
            else:
                self.stats.rpc_timeouts += 1
                self.tracer.emit(
                    EventKind.RPC_TIMEOUT, source=source,
                    label=label, attempts=policy.max_attempts, one_way=True,
                )

        attempt(1)

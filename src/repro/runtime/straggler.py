"""Straggler defense: adaptive detection, speculation, quarantine.

Hosts that *die* are handled by the echo protocol, rescheduling and
manager failover (PRs 3–4).  Hosts that merely *slow down* — the
performance-fault model of :meth:`repro.sim.failures.FailureInjector.
schedule_host_slowdown` — need different machinery, because a straggler
still answers echoes and never raises :class:`HostDownError`:

* :class:`PhiAccrualDetector` — a deterministic phi-accrual failure
  detector (Hayashibara et al., SRDS 2004) over echo inter-arrival
  history.  Instead of a binary up/down flip after N missed echoes it
  yields a continuous suspicion level ``phi``; the Group Manager maps
  it to SUSPECT / TRUST transitions and only declares a host down at a
  much higher threshold, so *slow is not dead* and a flapping host does
  not trigger spurious failover.
* :class:`RatioTracker` — per-host quantiles of measured/predicted
  runtime ratios, so the speculation trigger adapts to hosts whose
  predictions are systematically optimistic.
* :class:`SpeculationPolicy` — the knobs of speculative re-execution
  (when the :class:`~repro.runtime.execution.ExecutionCoordinator`
  launches one backup copy of an overdue task; first completion wins).
* :class:`HealthPolicy` / :class:`HostHealth` — a decaying per-host
  health score fed by suspicion, declared failures and lost
  speculation races.  Host selection folds ``1 + score`` into
  ``Predict()`` as a multiplicative penalty and, past a threshold,
  quarantines the host for a probation window.

Everything here is driven by the virtual clock and draws **no RNG**:
with the default configuration (``detector="count"``,
``speculation=None``, ``health=None``) none of it is constructed and
existing seeded traces are byte-identical.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Mapping, NamedTuple, Optional

from repro.errors import refuse_non_finite
from repro.sim.kernel import Simulator
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "CountEchoDetector",
    "EchoVerdict",
    "HealthPolicy",
    "HostHealth",
    "NULL_HEALTH",
    "PhiAccrualDetector",
    "PhiEchoDetector",
    "RatioTracker",
    "SpeculationPolicy",
]

_LN10 = math.log(10.0)
#: ratio history window per host
_RATIO_WINDOW = 20


class PhiAccrualDetector:
    """Suspicion level over heartbeat inter-arrival times.

    The classic phi-accrual detector models inter-arrival times and
    defines ``phi(t) = -log10 P(no arrival by t | history)``.  With an
    exponential arrival model this collapses to the closed form

        ``phi = elapsed / (mean_interval * ln 10)``

    which is what we compute: deterministic, cheap, and exactly the
    behaviour we need — ``phi`` grows *linearly* with silence, scaled
    by how regular the host's echoes have historically been.  A host
    answering every period sits near ``period / (period * ln 10) ≈
    0.43`` and is trusted; one that misses rounds accrues suspicion
    smoothly instead of flipping to "down" on a single tight timeout.

    Arrivals recorded *late* (a slowed host answering after the round's
    deadline) still enter the history, which is the crucial difference
    from the count detector: a straggler's mean interval stays near the
    echo period, so its phi stays low and it is never falsely declared
    down — merely SUSPECTed if it actually goes quiet.
    """

    def __init__(self, expected_interval_s: float, window: int = 16):
        if expected_interval_s <= 0:
            raise ValueError("expected_interval_s must be positive")
        if window < 2:
            raise ValueError("window must be >= 2")
        self.expected_interval_s = float(expected_interval_s)
        self._intervals: Deque[float] = deque(maxlen=int(window))
        self._last_arrival: Optional[float] = None

    def heartbeat(self, at: float) -> None:
        """Record one echo arrival at virtual time ``at``."""
        if self._last_arrival is not None and at > self._last_arrival:
            self._intervals.append(at - self._last_arrival)
        if self._last_arrival is None or at > self._last_arrival:
            self._last_arrival = at

    def mean_interval(self) -> float:
        """Mean observed inter-arrival; the expected period until the
        window has real samples."""
        if not self._intervals:
            return self.expected_interval_s
        return sum(self._intervals) / len(self._intervals)

    def phi(self, now: float) -> float:
        """Current suspicion level; 0 before the first arrival."""
        if self._last_arrival is None:
            return 0.0
        elapsed = now - self._last_arrival
        if elapsed <= 0:
            return 0.0
        return elapsed / (self.mean_interval() * _LN10)

    def reset(self) -> None:
        """Forget history (after a declared failure or a recovery)."""
        self._intervals.clear()
        self._last_arrival = None


_NOTHING: Mapping[str, Any] = {}


class EchoVerdict(NamedTuple):
    """What one echo of one host means under a detection discipline."""

    #: whether the echo counts as answered
    responded: bool
    #: ``"down"`` / ``"up"`` (the belief flips, the Site Manager is
    #: told), ``"suspect"`` / ``"trust"`` (suspicion only), None (no change)
    transition: Optional[str] = None
    #: extra fields of the round's ``echo`` trace event
    echo: Mapping[str, Any] = _NOTHING
    #: extra fields of the transition's trace event
    evidence: Mapping[str, Any] = _NOTHING
    #: reason to charge the host's health score with, if any
    penalty: Optional[str] = None


#: the two verdicts that change nothing (almost every echo ends in one)
_ANSWERED, _MISSED = EchoVerdict(True), EchoVerdict(False)


class CountEchoDetector:
    """The paper's protocol: down after N consecutive missed echoes.

    ``threshold`` consecutive misses declare a believed-up host down
    (1 = the paper's immediate declaration; more guards a lossy LAN
    against false positives); any answer from a believed-down host
    brings it back.  With a ``timeout_s`` an answer whose round trip
    took longer counts as a miss — which is how a merely slowed host
    becomes a false positive, the failure mode :class:`PhiEchoDetector`
    exists to avoid.

    An answer in time after one since the host's last :meth:`reset` is
    :meth:`quiet` — it changes nothing; the first after a reset is news.
    """

    def __init__(self, threshold: int, timeout_s: Optional[float] = None,
                 hosts: Iterable[str] = ()):
        self.threshold = threshold
        self.timeout_s = timeout_s
        #: consecutive missed echoes per host
        self.missed: Dict[str, int] = {name: 0 for name in hosts}
        #: hosts whose last echo in this epoch answered in time
        self.answered: set[str] = set()

    def reset(self, host: str) -> None:
        """Fresh state for ``host`` (also how a joining host is admitted)."""
        self.missed[host] = 0
        self.answered.discard(host)

    def retire(self, host: str) -> None:
        self.missed.pop(host, None)
        self.answered.discard(host)

    def suspects(self, host: str) -> bool:
        return False  # this discipline knows up and down only

    def quiet(self, host: str, rtt_s: float) -> bool:
        """Would an answer from ``host`` taking ``rtt_s`` change nothing?"""
        return host in self.answered and (
            self.timeout_s is None or rtt_s <= self.timeout_s)

    def round(self, host: str, responded: bool, rtt_s: float, now: float,
              believed_up: bool) -> EchoVerdict:
        if responded and self.timeout_s is not None and rtt_s > self.timeout_s:
            responded = False
        (self.answered.add if responded else self.answered.discard)(host)
        missed = self.missed[host] = 0 if responded else self.missed[host] + 1
        if believed_up and missed >= self.threshold:
            return EchoVerdict(responded, "down")
        if not believed_up and responded:
            return EchoVerdict(responded, "up")
        return _ANSWERED if responded else _MISSED


class PhiEchoDetector:
    """Phi-accrual rounds: slow is not dead.

    One :class:`PhiAccrualDetector` per host over echo arrival times.
    Suspicion ``phi`` is evaluated against the history *before* the
    round's arrival is recorded, then:

    * TRUST -> SUSPECT at ``phi >= phi_suspect``;
    * SUSPECT -> declared down at ``phi >= phi_down``;
    * SUSPECT -> TRUST when arrivals resume and phi falls back below
      ``phi_suspect``;
    * believed-down + any arrival -> up, with the history reset.

    There is no deadline: a late arrival simply enters the history.
    """

    def __init__(self, period_s: float, phi_suspect: float, phi_down: float,
                 hosts: Iterable[str] = ()):
        self.period_s = period_s
        self.phi_suspect = phi_suspect
        self.phi_down = phi_down
        self._history: Dict[str, PhiAccrualDetector] = {}
        self._suspected: Dict[str, bool] = {}
        for name in hosts:
            self.reset(name)

    def reset(self, host: str) -> None:
        """Fresh state for ``host`` (also how a joining host is admitted)."""
        self._history[host] = PhiAccrualDetector(self.period_s)
        self._suspected[host] = False

    def retire(self, host: str) -> None:
        self._history.pop(host, None)
        self._suspected.pop(host, None)

    def suspects(self, host: str) -> bool:
        return self._suspected.get(host, False)

    def quiet(self, host: str, rtt_s: float) -> bool:
        return False  # every echo moves the arrival history

    def round(self, host: str, responded: bool, rtt_s: float, now: float,
              believed_up: bool) -> EchoVerdict:
        phi = self._history[host].phi(now)
        echo = {"rtt_s": rtt_s if responded else None, "phi": phi}
        if not believed_up:
            if not responded:
                return EchoVerdict(False, None, echo)
            self.reset(host)
            self._history[host].heartbeat(now + rtt_s)
            return EchoVerdict(True, "up", echo)
        if responded:
            self._history[host].heartbeat(now + rtt_s)
        transition = penalty = None
        if self._suspected[host]:
            if phi >= self.phi_down:
                self.reset(host)
                transition, penalty = "down", "declared_down"
            elif phi < self.phi_suspect:
                self._suspected[host] = False
                transition = "trust"
        elif phi >= self.phi_suspect:
            self._suspected[host] = True
            transition, penalty = "suspect", "suspect"
        evidence = {"phi": phi} if transition is not None else _NOTHING
        return EchoVerdict(responded, transition, echo, evidence, penalty)


class RatioTracker:
    """Per-host measured/predicted runtime ratios, with quantiles.

    The speculation trigger multiplies a task's predicted time by a
    high quantile of this distribution for its host, so hosts whose
    predictions run systematically long (calibration drift, contended
    sites) do not trip endless false speculations.
    """

    def __init__(self):
        self._samples: Dict[str, Deque[float]] = {}

    def record(self, host: str, ratio: float) -> None:
        if ratio <= 0:
            return
        self._samples.setdefault(host, deque(maxlen=_RATIO_WINDOW)).append(
            float(ratio)
        )

    def quantile(self, host: str, q: float) -> Optional[float]:
        """The ``q``-quantile of the host's ratios; None with no samples."""
        samples = self._samples.get(host)
        if not samples:
            return None
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


@dataclass(frozen=True)
class SpeculationPolicy:
    """When and how the coordinator launches backup task copies."""

    #: launch a backup when elapsed > trigger_multiple × adjusted estimate
    trigger_multiple: float = 2.0
    #: how often the per-task speculation timer re-checks progress
    check_period_s: float = 1.0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.trigger_multiple <= 1.0:
            raise ValueError("trigger_multiple must exceed 1")
        if self.check_period_s <= 0:
            raise ValueError("check_period_s must be positive")


@dataclass(frozen=True)
class HealthPolicy:
    """Scoring knobs for :class:`HostHealth`."""

    #: score halves every this many virtual seconds
    half_life_s: float = 120.0
    #: decayed score at/above this quarantines the host
    quarantine_threshold: float = 3.0
    #: how long a quarantined host is excluded from selection
    probation_s: float = 300.0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        if self.quarantine_threshold <= 0:
            raise ValueError("quarantine_threshold must be positive")
        if self.probation_s <= 0:
            raise ValueError("probation_s must be positive")


class HostHealth:
    """Decaying per-host health scores with quarantine.

    ``score`` starts at 0 (healthy) and decays exponentially with the
    policy's half-life; penalties add to the decayed value.  Host
    selection asks :meth:`factor_of`: ``None`` means quarantined
    (exclude the host), otherwise ``1 + score`` multiplies the
    ``Predict()`` value, steering work away from flaky hosts in
    proportion to how recently they misbehaved.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: HealthPolicy = HealthPolicy(),
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.policy = policy
        self.tracer = tracer
        self._score: Dict[str, float] = {}
        self._updated: Dict[str, float] = {}
        self._quarantined_until: Dict[str, float] = {}
        #: host selection's ``health_of`` hook
        self.selection_hook = self.factor_of

    # -- scoring ----------------------------------------------------------

    def score_of(self, host: str) -> float:
        """The host's decayed score right now (0 = healthy)."""
        score = self._score.get(host, 0.0)
        if score <= 0.0:
            return 0.0
        dt = self.sim.now - self._updated.get(host, self.sim.now)
        if dt > 0:
            score *= 0.5 ** (dt / self.policy.half_life_s)
        return score

    def penalize(
        self, host: str, amount: float, reason: str = "", origin: str = ""
    ) -> None:
        """Fold one penalty into the host's decayed score.

        ``origin`` names who reported the misbehaviour (``app:<name>``
        or ``gm:<name>``), so a QUARANTINE event is attributable to the
        application or manager whose penalty tipped the score.
        """
        if amount <= 0:
            return
        score = self.score_of(host) + float(amount)
        self._score[host] = score
        self._updated[host] = self.sim.now
        if (
            score >= self.policy.quarantine_threshold
            and host not in self._quarantined_until
        ):
            self._quarantined_until[host] = (
                self.sim.now + self.policy.probation_s
            )
            self.tracer.emit(
                EventKind.QUARANTINE, source="health",
                host=host, score=score, reason=reason,
                origin=origin or "health",
                until=self._quarantined_until[host],
            )
            self._export_gauge()

    # -- selection interface ----------------------------------------------

    def factor_of(self, host: str) -> Optional[float]:
        """Prediction multiplier for ``host``; None while quarantined.

        Expired quarantines are released lazily here (the first
        selection that reconsiders the host), with a PROBATION trace
        event; the score restarts at half the quarantine threshold so
        one further incident re-quarantines but clean behaviour decays
        back to healthy.
        """
        until = self._quarantined_until.get(host)
        if until is not None:
            if self.sim.now < until:
                return None
            del self._quarantined_until[host]
            self._score[host] = self.policy.quarantine_threshold / 2.0
            self._updated[host] = self.sim.now
            self.tracer.emit(
                EventKind.PROBATION, source="health",
                host=host, score=self._score[host],
            )
            self._export_gauge()
        return 1.0 + self.score_of(host)

    def is_quarantined(self, host: str) -> bool:
        until = self._quarantined_until.get(host)
        return until is not None and self.sim.now < until

    def quarantined_hosts(self) -> List[str]:
        return sorted(
            h for h, until in self._quarantined_until.items()
            if self.sim.now < until
        )

    def _export_gauge(self) -> None:
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.gauge(
                "vdce_quarantined_hosts",
                "hosts currently excluded from selection by quarantine",
            ).set(float(len(self.quarantined_hosts())))


class NullHealth:
    """Host health off: no score, no quarantine, no selection hook."""

    selection_hook = None

    def penalize(self, host, amount, reason="", origin="") -> None:
        pass

    def quarantined_hosts(self) -> List[str]:
        return []


#: the shared "off" — safe because it holds no state
NULL_HEALTH = NullHealth()

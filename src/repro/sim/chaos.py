"""Chaos campaigns: randomized fault injection with checked invariants.

A campaign stands up a full VDCE deployment, starts the monitoring
control plane, arms scripted and stochastic fault injectors (host
crashes, WAN link outages, a mid-campaign partition, optionally a
whole-site outage, control-message loss), submits a stream of
applications, and then audits the run against four invariants:

I1 — *typed completion*: every application either completes or fails
     with a typed error (:class:`~repro.runtime.execution.ExecutionError`,
     :class:`~repro.scheduler.site_scheduler.SchedulingError`,
     :class:`~repro.net.rpc.RpcTimeout`,
     :class:`~repro.sim.host.HostDownError`).  Untyped exceptions and
     applications that never settle are violations.
I2 — *no believed-down placement*: no successful task attempt starts on
     a host while the failure detector believes that host is down.
I3 — *determinism*: a campaign is a pure function of its config — the
     same seed yields byte-identical trace and metrics hashes (checked
     by running the campaign twice; see ``repro chaos``).
I4 — *reconciliation*: the injection log (ground truth) and the
     detection log (what the Group Managers reported) agree — every
     false positive is accounted for, and every sufficiently long real
     outage is detected within the echo-protocol's detection window.
I5 — *resume equivalence*: every completed application's terminal
     output hashes equal the pure-evaluation oracle
     (:func:`~repro.runtime.checkpoint.expected_output_hashes`) — in
     particular an application checkpoint-restarted after its Site
     Manager crashed produces byte-identical outputs.
I6 — *no orphaned group*: at campaign end every Site Manager is
     re-registered, every Group Manager is live (original or deputy),
     and every host is owned by exactly one live Group Manager.
I7 — *speculation safety*: every completed application that resolved at
     least one speculative race with a backup win still reproduces the
     pure-evaluation oracle's terminal output hashes — which copy won
     must be unobservable in the outputs.
I8 — *bounded waste*: at most one backup is ever launched per task
     attempt, every speculative race launched by a completed
     application is resolved (no leaked backups), and no backup is
     launched after its race has already been decided.
I9 — *span integrity* (only audited with ``causal_spans=True``): every
     opened causal span closes exactly once, or is explicitly
     orphan-marked when its application dies or the campaign ends with
     work in flight — the trace never contains a silently leaked,
     double-closed, or never-opened span.
I10 — *bounded admission* (only with ``storm_apps > 0``): the admission
     queue's depth never exceeds its configured bound, and every
     submitted storm application reaches a terminal outcome — admitted
     (completed/failed), rejected, or expired.  Nothing queues forever.
I11 — *breaker silence* (only with ``breakers=True``): while a circuit
     is open, no message is sent on that link — every send either
     precedes the trip or is the half-open probe at window end.
I12 — *no dirty consumption* (only with ``data_integrity=True``): no
     task ever consumes bytes whose content hash mismatches the
     producer's recorded hash — every consumption in the integrity
     ledger is clean, because a mismatch is always caught and repaired
     (or fails typed) before the value reaches a task.
I13 — *repair or typed death* (only with ``data_integrity=True``):
     every corruption/loss incident ends ``refetched`` or
     ``regenerated``, or is ``poisoned`` with the owning application
     terminating in a typed failure — a completed application never
     leaves an incident unresolved, and never completes past a
     poisoned artifact.
I14 — *no placement on a non-ACTIVE host* (only with ``n_churn_hosts
     > 0``): once a host's drain/departure transition is recorded, no
     successful task attempt starts on it until it rejoins and
     reactivates — attempts already running at drain time may finish,
     which is the entire point of a graceful drain.
I15 — *drain loses no work*: every task evicted or invalidated by a
     membership transition either completes on another (ACTIVE) host
     or its application dies with a typed error — nothing is silently
     dropped on the federation floor.
I16 — *rejoin convergence*: a host that departed and rejoined ends the
     campaign ACTIVE and re-scorable — present in its repository's
     runnable table, so host selection bids it again.

Campaigns can also inject *performance* faults — scripted host
slowdowns and stochastic slow/normal flapping — and enable the
straggler defenses (phi-accrual detection, speculative re-execution,
host-health quarantine) they exist to stress.  All of it defaults off,
so existing configs hash identically.

Everything is deterministic: victims are drawn from the named stream
``chaos:plan``, fault processes from their per-target streams, and the
report's :meth:`~ChaosReport.campaign_hash` is a content hash of the
whole outcome — the regression oracle the CLI and CI lean on.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.hashing import canonical_json
from repro.sim.failures import FailureInjector
from repro.sim.host import HostDownError
from repro.sim.kernel import Timeout

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "churn_smoke_config",
    "corruption_smoke_config",
    "run_campaign",
    "slowdown_smoke_config",
    "smoke_config",
    "storm_config",
]

#: worst-case lag between a Group Manager detection and the repository
#: update it triggers (one lossless LAN notify), plus scheduling slack
_REPORT_DELIVERY_SLACK_S = 0.5

#: the corruption/integrity knobs and their defaults — a config where
#: every one matches is serialised without them (see ChaosReport.to_dict)
_CORRUPTION_DEFAULTS = {
    "data_integrity": False,
    "integrity_max_refetches": 2,
    "integrity_max_regenerations": 2,
    "n_corrupt_links": 0,
    "link_corrupt_prob": 0.0,
    "link_truncate_prob": 0.0,
    "corruption_at_s": 10.0,
    "corruption_duration_s": None,
    "artifact_loss_at_s": None,
    "journal_corrupt_at_s": None,
}

#: the membership-churn knobs and their defaults — same omission rule,
#: so presets that never churn keep their committed campaign hashes
_CHURN_DEFAULTS = {
    "n_churn_hosts": 0,
    "churn_start_s": 30.0,
    "churn_window_s": 60.0,
    "churn_drain_deadline_s": 8.0,
    "churn_rejoin_after_s": None,
}


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a campaign depends on — hash this, and you hash the run."""

    seed: int = 0
    n_sites: int = 3
    hosts_per_site: int = 4
    n_apps: int = 4
    #: nominal campaign length; apps may run past it, faults keep going
    duration_s: float = 300.0
    first_submit_s: float = 5.0
    app_spacing_s: float = 45.0
    k: int = 2
    # stochastic host faults
    n_flaky_hosts: int = 2
    host_mtbf_s: float = 120.0
    host_mttr_s: float = 30.0
    # stochastic WAN link faults
    n_flaky_links: int = 1
    link_mtbf_s: float = 150.0
    link_mttr_s: float = 20.0
    # scripted WAN partition (first site vs the rest); None disables
    partition_at_s: Optional[float] = 60.0
    partition_duration_s: float = 40.0
    # scripted whole-site outage (last site); None disables
    site_outage_at_s: Optional[float] = None
    site_outage_duration_s: float = 30.0
    # scripted Group Manager crash (victim drawn from chaos:plan);
    # permanent — the group's monitors must elect a deputy.  None disables
    gm_crash_at_s: Optional[float] = None
    # scripted Site Manager crash; the server re-registers after
    # sm_crash_duration_s, and in-flight applications it owned must
    # checkpoint-restart on a surviving site.  None disables
    sm_crash_at_s: Optional[float] = None
    sm_crash_duration_s: float = 45.0
    # control-message quality (WAN message loss; echo loss is LAN-side)
    message_loss_prob: float = 0.05
    echo_loss_prob: float = 0.05
    suspicion_threshold: int = 2
    echo_period_s: float = 5.0
    # performance faults: scripted slowdowns + stochastic slow/normal
    # flapping (victims drawn from chaos:plan, after all crash victims,
    # so enabling them never perturbs an existing config's fault plan)
    n_slow_hosts: int = 0
    slowdown_at_s: float = 50.0
    slowdown_duration_s: float = 60.0
    slowdown_factor: float = 8.0
    n_flapping_hosts: int = 0
    flap_mean_normal_s: float = 40.0
    flap_mean_slow_s: float = 15.0
    flap_factor: float = 6.0
    # straggler defenses under test (defaults mirror RuntimeConfig: off)
    detector: str = "count"
    speculation: bool = False
    health: bool = False
    # causal span tracing (repro.obs): off by default so existing
    # configs' traces keep their committed shape; on, the I9 span
    # integrity invariant is audited as part of the campaign
    causal_spans: bool = False
    # arrival storm through a bounded admission queue at the first site
    # (0 disables: no queue is built, no extra users are created)
    storm_apps: int = 0
    storm_start_s: float = 10.0
    #: submissions per burst (a burst lands at one instant)
    storm_burst: int = 6
    storm_spacing_s: float = 4.0
    #: distinct storm users, cycled over submissions; user ``stormJ``
    #: has priority ``1 + J % 3``
    storm_users: int = 3
    storm_max_queued: int = 8
    storm_max_concurrent: int = 2
    #: in-queue TTL every storm submission carries (None = no TTL)
    storm_ttl_s: Optional[float] = 45.0
    #: deadline carried by every third storm submission (None disables)
    storm_deadline_s: Optional[float] = None
    #: per-user token-bucket rate limit (None = no rate limiting)
    storm_user_rate_per_s: Optional[float] = None
    storm_user_burst: int = 2
    # overload-protection features under test (defaults mirror
    # RuntimeConfig: off, so existing configs hash identically)
    overload: bool = False
    breakers: bool = False
    # data-plane integrity (DESIGN §16): end-to-end checksums and the
    # refetch → lineage-regeneration → poison repair ladder.  Default
    # mirrors RuntimeConfig: off — and :meth:`ChaosReport.to_dict`
    # omits these keys entirely when every one sits at its default, so
    # existing configs' campaign hashes stay byte-identical
    data_integrity: bool = False
    integrity_max_refetches: int = 2
    integrity_max_regenerations: int = 2
    # corruption faults: armed WAN links flip/truncate payloads with
    # these per-transfer probabilities (victims drawn from chaos:plan
    # after every other victim, so arming never perturbs crash plans)
    n_corrupt_links: int = 0
    link_corrupt_prob: float = 0.0
    link_truncate_prob: float = 0.0
    corruption_at_s: float = 10.0
    corruption_duration_s: Optional[float] = None
    # scripted staged-artifact loss on one host (needs data_integrity —
    # the artifact index is what gets damaged); None disables
    artifact_loss_at_s: Optional[float] = None
    # scripted checkpoint-journal bit-rot on one app's journal (victim
    # app drawn from chaos:plan); None disables
    journal_corrupt_at_s: Optional[float] = None
    # membership churn (DESIGN §17): n_churn_hosts victims (never a
    # group leader or site server) each gracefully drain and depart at
    # a per-host time drawn from their own churn:<name> stream inside
    # [churn_start_s, churn_start_s + churn_window_s).  0 disables:
    # no victims drawn, no extra RNG, campaign hashes unchanged
    n_churn_hosts: int = 0
    churn_start_s: float = 30.0
    churn_window_s: float = 60.0
    #: running attempts get this long to finish before eviction;
    #: None = hard decommission (immediate eviction, no drain grace)
    churn_drain_deadline_s: Optional[float] = 8.0
    #: departed hosts rejoin roughly this long after departing (±25%
    #: jitter from their churn stream); None = they stay gone
    churn_rejoin_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_sites < 1 or self.hosts_per_site < 1:
            raise ValueError("need at least one site with one host")
        if self.n_apps < 1:
            raise ValueError("n_apps must be >= 1")
        if self.duration_s <= 0 or self.app_spacing_s < 0:
            raise ValueError("duration_s must be positive, spacing non-negative")
        if self.n_flaky_hosts < 0 or self.n_flaky_links < 0:
            raise ValueError("victim counts must be non-negative")
        if not (0.0 <= self.message_loss_prob < 1.0):
            raise ValueError("message_loss_prob must be in [0, 1)")
        if not (0.0 <= self.echo_loss_prob < 1.0):
            raise ValueError("echo_loss_prob must be in [0, 1)")
        if self.n_slow_hosts < 0 or self.n_flapping_hosts < 0:
            raise ValueError("performance-fault victim counts must be >= 0")
        if self.n_slow_hosts and (
            self.slowdown_factor <= 1.0 or self.slowdown_duration_s <= 0
        ):
            raise ValueError("slowdown needs factor > 1 and duration > 0")
        if self.n_flapping_hosts and (
            self.flap_factor <= 1.0
            or self.flap_mean_normal_s <= 0
            or self.flap_mean_slow_s <= 0
        ):
            raise ValueError("flapping needs factor > 1 and positive means")
        if self.detector not in ("count", "phi"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.storm_apps < 0:
            raise ValueError("storm_apps must be non-negative")
        if self.storm_apps:
            if self.storm_burst < 1 or self.storm_users < 1:
                raise ValueError("storm_burst/storm_users must be >= 1")
            if self.storm_spacing_s < 0:
                raise ValueError("storm_spacing_s must be non-negative")
            if self.storm_max_queued < 1 or self.storm_max_concurrent < 1:
                raise ValueError(
                    "storm_max_queued/storm_max_concurrent must be >= 1"
                )
        if self.n_corrupt_links < 0:
            raise ValueError("n_corrupt_links must be non-negative")
        if not (0.0 <= self.link_corrupt_prob < 1.0):
            raise ValueError("link_corrupt_prob must be in [0, 1)")
        if not (0.0 <= self.link_truncate_prob < 1.0):
            raise ValueError("link_truncate_prob must be in [0, 1)")
        if self.link_corrupt_prob + self.link_truncate_prob >= 1.0:
            raise ValueError("corruption probabilities must sum below 1")
        if self.integrity_max_refetches < 0 or self.integrity_max_regenerations < 0:
            raise ValueError("integrity repair budgets must be non-negative")
        if self.artifact_loss_at_s is not None and not self.data_integrity:
            raise ValueError(
                "artifact_loss_at_s damages the integrity artifact index "
                "— it needs data_integrity=True"
            )
        if self.n_corrupt_links > 0 and not self.data_integrity:
            raise ValueError(
                "n_corrupt_links marks payloads that only the integrity "
                "machinery can detect — it needs data_integrity=True "
                "(silent corruption would make I12/I13 unauditable)"
            )
        if self.n_churn_hosts < 0:
            raise ValueError("n_churn_hosts must be non-negative")
        if self.n_churn_hosts:
            if self.churn_window_s <= 0:
                raise ValueError("churn_window_s must be positive")
            if (self.churn_drain_deadline_s is not None
                    and self.churn_drain_deadline_s <= 0):
                raise ValueError("churn_drain_deadline_s must be positive")
            if (self.churn_rejoin_after_s is not None
                    and self.churn_rejoin_after_s <= 0):
                raise ValueError("churn_rejoin_after_s must be positive")


def smoke_config(seed: int = 0) -> ChaosConfig:
    """The small, fast campaign CI runs on every push."""
    return ChaosConfig(
        seed=seed,
        n_sites=3,
        hosts_per_site=3,
        n_apps=3,
        duration_s=240.0,
        app_spacing_s=35.0,
        n_flaky_hosts=2,
        host_mtbf_s=90.0,
        host_mttr_s=25.0,
        n_flaky_links=1,
        link_mtbf_s=120.0,
        link_mttr_s=15.0,
        partition_at_s=40.0,
        partition_duration_s=30.0,
        gm_crash_at_s=70.0,
        sm_crash_at_s=100.0,
        sm_crash_duration_s=45.0,
        message_loss_prob=0.05,
        echo_loss_prob=0.05,
    )


def slowdown_smoke_config(seed: int = 0) -> ChaosConfig:
    """The straggler-defense campaign CI runs: slowdowns + flapping with
    phi-accrual detection, speculation, and health quarantine enabled."""
    return ChaosConfig(
        seed=seed,
        n_sites=3,
        hosts_per_site=3,
        n_apps=3,
        duration_s=240.0,
        app_spacing_s=35.0,
        n_flaky_hosts=1,
        host_mtbf_s=120.0,
        host_mttr_s=25.0,
        n_flaky_links=0,
        partition_at_s=None,
        message_loss_prob=0.02,
        echo_loss_prob=0.02,
        n_slow_hosts=6,
        slowdown_at_s=20.0,
        slowdown_duration_s=90.0,
        slowdown_factor=8.0,
        n_flapping_hosts=3,
        flap_mean_normal_s=40.0,
        flap_mean_slow_s=15.0,
        flap_factor=6.0,
        detector="phi",
        speculation=True,
        health=True,
    )


def corruption_smoke_config(seed: int = 0) -> ChaosConfig:
    """The data-integrity campaign CI runs: every WAN link flips or
    truncates payloads, one host's staged artifacts vanish mid-run, one
    app's checkpoint journal takes a bit of rot — with end-to-end
    checksums and the refetch/regenerate/poison repair ladder armed.
    A Site Manager crash keeps the checkpoint-resume path in play so
    the journal fault has somewhere to bite."""
    return ChaosConfig(
        seed=seed,
        n_sites=3,
        hosts_per_site=3,
        n_apps=4,
        duration_s=240.0,
        app_spacing_s=35.0,
        n_flaky_hosts=0,
        n_flaky_links=0,
        partition_at_s=None,
        sm_crash_at_s=90.0,
        sm_crash_duration_s=45.0,
        message_loss_prob=0.02,
        echo_loss_prob=0.02,
        data_integrity=True,
        n_corrupt_links=3,
        link_corrupt_prob=0.35,
        link_truncate_prob=0.10,
        corruption_at_s=10.0,
        artifact_loss_at_s=60.0,
        journal_corrupt_at_s=80.0,
    )


def churn_smoke_config(seed: int = 0) -> ChaosConfig:
    """The membership-churn campaign CI runs: every non-leader host
    gracefully drains and departs mid-run (each at its own
    ``churn:<name>``-drawn time inside the window), then rejoins under
    a fresh epoch while applications keep arriving — exercising drain
    eviction (the 2s grace is shorter than a task slice, so resident
    work genuinely gets preempted and rescheduled), epoch-checked
    placement (I14), drain work conservation (I15), and rejoin
    convergence (I16).  Crash/partition faults stay off so every
    reschedule in the campaign is attributable to membership churn."""
    return ChaosConfig(
        seed=seed,
        n_sites=3,
        hosts_per_site=4,
        n_apps=4,
        duration_s=300.0,
        app_spacing_s=40.0,
        n_flaky_hosts=0,
        n_flaky_links=0,
        partition_at_s=None,
        message_loss_prob=0.02,
        echo_loss_prob=0.02,
        n_churn_hosts=9,
        churn_start_s=25.0,
        churn_window_s=70.0,
        churn_drain_deadline_s=2.0,
        churn_rejoin_after_s=50.0,
    )


def storm_config(seed: int = 0) -> ChaosConfig:
    """The overload campaign: an arrival storm against a bounded
    admission queue, with backpressure/brownout and circuit breakers
    armed, plus a WAN partition so the breakers actually trip."""
    return ChaosConfig(
        seed=seed,
        n_sites=2,
        hosts_per_site=2,
        n_apps=2,
        duration_s=180.0,
        first_submit_s=5.0,
        app_spacing_s=30.0,
        n_flaky_hosts=1,
        host_mtbf_s=90.0,
        host_mttr_s=20.0,
        n_flaky_links=0,
        partition_at_s=30.0,
        partition_duration_s=25.0,
        message_loss_prob=0.02,
        echo_loss_prob=0.02,
        storm_apps=18,
        storm_start_s=10.0,
        storm_burst=6,
        storm_spacing_s=4.0,
        storm_users=3,
        storm_max_queued=8,
        storm_max_concurrent=2,
        storm_ttl_s=45.0,
        storm_deadline_s=60.0,
        storm_user_rate_per_s=0.25,
        storm_user_burst=2,
        overload=True,
        breakers=True,
    )


@dataclass
class ChaosReport:
    """What one campaign did, found, and hashed to."""

    config: ChaosConfig
    outcomes: Dict[str, Dict[str, Any]]
    violations: List[str]
    injection_events: int
    detections: int
    false_positives: int
    final_time: float
    trace_hash: str
    metrics_hash: str
    #: ground-truth injection log, serialised for artifacts/reconciliation
    injection_log: List[Dict[str, Any]] = field(default_factory=list)
    # straggler-defense outcome (zero/empty unless the defenses ran)
    speculative_launches: int = 0
    speculative_wins: int = 0
    speculative_wasted_s: float = 0.0
    quarantined_hosts: List[str] = field(default_factory=list)
    # overload-protection outcome (zero/empty unless a storm ran)
    sheds: int = 0
    shed_log: List[Dict[str, Any]] = field(default_factory=list)
    peak_queued: int = 0
    brownout_shifts: int = 0
    breaker_transitions: int = 0
    breaker_fast_fails: int = 0
    #: integrity ledger snapshot (None unless the campaign armed it)
    integrity: Optional[Dict[str, Any]] = None
    #: membership-transition audit (None unless churn was armed)
    membership: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        config = asdict(self.config)
        # a config with every corruption knob at its default serialises
        # exactly as it did before the knobs existed, so the committed
        # campaign hashes of the older presets stay byte-identical
        if all(config[k] == v for k, v in _CORRUPTION_DEFAULTS.items()):
            for key in _CORRUPTION_DEFAULTS:
                del config[key]
        # same rule for the churn knobs: a config that never churns
        # serialises as it did before they existed
        if all(config[k] == v for k, v in _CHURN_DEFAULTS.items()):
            for key in _CHURN_DEFAULTS:
                del config[key]
        document = {
            "config": config,
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "violations": list(self.violations),
            "injection_events": self.injection_events,
            "detections": self.detections,
            "false_positives": self.false_positives,
            "final_time": round(self.final_time, 9),
            "trace_hash": self.trace_hash,
            "metrics_hash": self.metrics_hash,
            "injection_log": list(self.injection_log),
            "speculative_launches": self.speculative_launches,
            "speculative_wins": self.speculative_wins,
            "speculative_wasted_s": round(self.speculative_wasted_s, 9),
            "quarantined_hosts": list(self.quarantined_hosts),
            "sheds": self.sheds,
            "shed_log": list(self.shed_log),
            "peak_queued": self.peak_queued,
            "brownout_shifts": self.brownout_shifts,
            "breaker_transitions": self.breaker_transitions,
            "breaker_fast_fails": self.breaker_fast_fails,
            "ok": self.ok,
        }
        if self.integrity is not None:
            document["integrity"] = self.integrity
        if self.membership is not None:
            document["membership"] = self.membership
        return document

    def campaign_hash(self) -> str:
        """Content hash of the whole campaign outcome (I3's oracle)."""
        payload = canonical_json(self.to_dict())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _build_apps(config: ChaosConfig):
    """The deterministic application stream: shapes cycle, names unique."""
    from repro.workloads.pipelines import fork_join, linear_pipeline, reduction_tree

    apps = []
    for i in range(config.n_apps):
        shape = i % 3
        if shape == 0:
            afg = linear_pipeline(n_stages=5, cost=6.0, edge_mb=4.0)
        elif shape == 1:
            afg = fork_join(width=3, branch_cost=8.0, edge_mb=2.0)
        else:
            afg = reduction_tree(leaves=4, leaf_cost=7.0, edge_mb=2.0)
        afg.name = f"chaos{i:02d}-{afg.name}"
        apps.append(afg)
    return apps


def run_campaign(
    config: ChaosConfig, trace_path: Optional[str] = None
) -> ChaosReport:
    """Run one chaos campaign and audit it; never raises on faults —
    fault-tolerance failures surface as :attr:`ChaosReport.violations`.

    ``trace_path`` writes the campaign's full event trace (JSONL) for
    offline analysis — with ``causal_spans`` on, ``repro explain`` can
    attribute each application's time from that file.
    """
    # imported here: repro.sim must not depend on the upper layers at
    # import time (the facade imports back down into repro.sim)
    from repro.core.vdce import VDCE
    from repro.metrics.registry import MetricsRegistry
    from repro.runtime.checkpoint import (
        ApplicationCheckpoint,
        CheckpointJournal,
        expected_output_hashes,
        final_output_hashes,
    )
    from repro.runtime.admission import (
        AdmissionExpired,
        AdmissionPolicy,
        AdmissionQueue,
        AdmissionRejected,
    )
    from repro.errors import DataIntegrityError, JournalCorruptError
    from repro.runtime.execution import ExecutionCoordinator, ExecutionError
    from repro.runtime.integrity import IntegrityPolicy
    from repro.runtime.overload import OverloadPolicy
    from repro.runtime.straggler import HealthPolicy, SpeculationPolicy
    from repro.runtime.vdce_runtime import RuntimeConfig
    from repro.net.rpc import BreakerPolicy, ManagerUnavailable, RpcTimeout
    from repro.repository.users import AccessDomain
    from repro.scheduler.site_scheduler import SchedulingError, SiteScheduler
    from repro.trace.tracer import Tracer

    typed_errors = (
        ExecutionError, SchedulingError, RpcTimeout, ManagerUnavailable,
        HostDownError, DataIntegrityError, JournalCorruptError,
    )

    tracer = Tracer()
    vdce = VDCE.standard(
        n_sites=config.n_sites,
        hosts_per_site=config.hosts_per_site,
        seed=config.seed,
        runtime_config=RuntimeConfig(
            echo_loss_prob=config.echo_loss_prob,
            suspicion_threshold=config.suspicion_threshold,
            echo_period_s=config.echo_period_s,
            detector=config.detector,
            speculation=SpeculationPolicy() if config.speculation else None,
            health=HealthPolicy() if config.health else None,
            causal_spans=config.causal_spans,
            overload=OverloadPolicy() if config.overload else None,
            breaker=BreakerPolicy() if config.breakers else None,
            data_integrity=(
                IntegrityPolicy(
                    max_refetches=config.integrity_max_refetches,
                    max_regenerations=config.integrity_max_regenerations,
                )
                if config.data_integrity else None
            ),
        ),
        tracer=tracer,
        metrics=MetricsRegistry(),
    )
    sim = vdce.sim
    runtime = vdce.runtime
    network = vdce.topology.network
    sites = vdce.sites
    vdce.start_monitoring()
    if config.message_loss_prob > 0 and config.n_sites > 1:
        network.set_message_loss(config.message_loss_prob)

    # -- arm the injectors -------------------------------------------------
    injector = FailureInjector(sim)
    plan_rng = sim.rng("chaos:plan")
    all_hosts = sorted(vdce.topology.all_hosts, key=lambda h: h.name)
    n_hosts = min(config.n_flaky_hosts, len(all_hosts))
    if n_hosts:
        picks = sorted(plan_rng.choice(len(all_hosts), size=n_hosts, replace=False))
        for i in picks:
            injector.start_random(
                all_hosts[int(i)], config.host_mtbf_s, config.host_mttr_s
            )
    site_pairs = [
        (a, b) for i, a in enumerate(sites) for b in sites[i + 1:]
    ]
    n_links = min(config.n_flaky_links, len(site_pairs))
    if n_links:
        picks = sorted(plan_rng.choice(len(site_pairs), size=n_links, replace=False))
        for i in picks:
            a, b = site_pairs[int(i)]
            injector.start_random_link(
                network.wan_link(a, b), config.link_mtbf_s, config.link_mttr_s
            )
    if config.partition_at_s is not None and config.n_sites > 1:
        injector.schedule_partition(
            network, [[sites[0]], sites[1:]],
            start=config.partition_at_s, duration=config.partition_duration_s,
        )
    if config.site_outage_at_s is not None and config.n_sites > 1:
        injector.schedule_site_outage(
            vdce.topology.site(sites[-1]), network,
            start=config.site_outage_at_s,
            duration=config.site_outage_duration_s,
        )
    if config.gm_crash_at_s is not None:
        gm_names = sorted(runtime.group_managers)
        victim = gm_names[int(plan_rng.choice(len(gm_names)))]
        injector.schedule_group_manager_crash(
            runtime.group_managers[victim], config.gm_crash_at_s
        )
    if config.sm_crash_at_s is not None:
        victim = sites[int(plan_rng.choice(len(sites)))]
        injector.schedule_site_manager_crash(
            runtime.site_managers[victim], config.sm_crash_at_s,
            duration=config.sm_crash_duration_s,
        )
    # performance faults draw AFTER every crash victim so that enabling
    # them leaves an existing config's crash plan untouched
    n_slow = min(config.n_slow_hosts, len(all_hosts))
    if n_slow:
        picks = sorted(plan_rng.choice(len(all_hosts), size=n_slow, replace=False))
        for i in picks:
            injector.schedule_host_slowdown(
                all_hosts[int(i)],
                start=config.slowdown_at_s,
                duration=config.slowdown_duration_s,
                factor=config.slowdown_factor,
            )
    n_flap = min(config.n_flapping_hosts, len(all_hosts))
    if n_flap:
        picks = sorted(plan_rng.choice(len(all_hosts), size=n_flap, replace=False))
        for i in picks:
            injector.start_flapping(
                all_hosts[int(i)],
                mean_normal_s=config.flap_mean_normal_s,
                mean_slow_s=config.flap_mean_slow_s,
                factor=config.flap_factor,
            )
    # data-plane corruption victims draw last, so arming them leaves
    # every crash/slowdown plan of an existing config untouched
    n_corrupt = min(config.n_corrupt_links, len(site_pairs))
    if n_corrupt:
        picks = sorted(plan_rng.choice(
            len(site_pairs), size=n_corrupt, replace=False
        ))
        for i in picks:
            a, b = site_pairs[int(i)]
            injector.schedule_link_corruption(
                network.wan_link(a, b),
                time=config.corruption_at_s,
                corrupt_prob=config.link_corrupt_prob,
                truncate_prob=config.link_truncate_prob,
                duration=config.corruption_duration_s,
            )
    if config.artifact_loss_at_s is not None and runtime.integrity is not None:
        victim_host = all_hosts[int(plan_rng.choice(len(all_hosts)))].name
        injector.schedule_artifact_loss(
            runtime.integrity, victim_host, config.artifact_loss_at_s
        )
    journal_victim = (
        int(plan_rng.choice(config.n_apps))
        if config.journal_corrupt_at_s is not None else None
    )
    # membership churn victims draw after EVERY other chaos:plan draw,
    # so arming churn never perturbs an existing config's fault plan.
    # Group leaders and site servers are never eligible — the control
    # plane they run is not what elastic membership removes.
    churn_targets: List[str] = []
    if config.n_churn_hosts:
        protected = set()
        for site_name in sites:
            site = vdce.topology.site(site_name)
            protected.add(site.server_host.name)
            for group in site.groups.values():
                protected.add(group.spec.leader)
        eligible = sorted(
            h.name for h in all_hosts if h.name not in protected
        )
        n_churn = min(config.n_churn_hosts, len(eligible))
        if n_churn:
            picks = sorted(plan_rng.choice(
                len(eligible), size=n_churn, replace=False
            ))
            churn_targets = [eligible[int(i)] for i in picks]
            by_site: Dict[str, List[str]] = {}
            for name in churn_targets:
                site_name = vdce.topology.host(name).site_name
                by_site.setdefault(site_name, []).append(name)
            for site_name in sorted(by_site):
                injector.schedule_churn(
                    runtime.site_managers[site_name], by_site[site_name],
                    start=config.churn_start_s,
                    window_s=config.churn_window_s,
                    drain_deadline_s=config.churn_drain_deadline_s,
                    rejoin_after_s=config.churn_rejoin_after_s,
                )

    # -- submit the application stream -------------------------------------
    outcomes: Dict[str, Dict[str, Any]] = {}
    coordinators: List[ExecutionCoordinator] = []
    #: app name -> (afg, ApplicationResult) of the completed run (for I5)
    completed_runs: Dict[str, Tuple[Any, Any]] = {}

    def run_app(afg, submit_site: str, delay: float,
                corrupt_journal: bool = False):
        yield Timeout(delay)
        submitted = sim.now
        # every app journals to an in-memory journal: same record stream
        # and byte accounting as a durable one, no filesystem
        journal = CheckpointJournal(None)
        if corrupt_journal:
            # the journal exists only from submission on; a fault slot
            # already in the past fires immediately
            injector.schedule_journal_corruption(
                journal, max(config.journal_corrupt_at_s, sim.now),
                label=afg.name,
            )
        restarted = False
        try:
            try:
                table, _sched = yield from runtime.schedule_process(
                    afg, SiteScheduler(k=config.k, model=runtime.model),
                    local_site=submit_site,
                )
                coordinator = ExecutionCoordinator(
                    runtime, afg, table, submit_site=submit_site,
                    journal=journal,
                )
                coordinators.append(coordinator)
                result = yield coordinator.start()
            except ManagerUnavailable:
                # the owning Site Manager crashed mid-flight: restart the
                # application from its checkpoint on a surviving site;
                # completed tasks are restored, only the frontier re-runs
                survivors = [
                    s for s in sites
                    if runtime.site_managers[s].alive and s != submit_site
                ]
                if not survivors:
                    raise
                # the dead incarnation's open spans are orphan-marked;
                # the restart opens a fresh root window for the app
                runtime.spans.abandon_app(
                    afg.name, reason="ManagerUnavailable", source="chaos"
                )
                checkpoint = ApplicationCheckpoint.from_records(
                    journal.records()
                )
                restarted = True
                submit_site = survivors[0]
                coordinator = ExecutionCoordinator(
                    runtime, checkpoint.afg, checkpoint.table,
                    submit_site=submit_site,
                    journal=journal, checkpoint=checkpoint,
                )
                coordinators.append(coordinator)
                result = yield coordinator.start()
            outcomes[afg.name] = {
                "status": "completed",
                "site": submit_site,
                "restarted": restarted,
                "submitted_at": round(submitted, 9),
                "makespan_s": round(result.makespan, 9),
                "reschedules": result.reschedules,
                "transfer_retries": result.transfer_retries,
                "channel_reestablishes": result.channel_reestablishes,
                "sites_used": sorted({r.site for r in result.records.values()}),
            }
            completed_runs[afg.name] = (coordinator.afg, result)
        except typed_errors as exc:
            runtime.spans.abandon_app(
                afg.name, reason=type(exc).__name__, source="chaos"
            )
            outcomes[afg.name] = {
                "status": "failed",
                "site": submit_site,
                "submitted_at": round(submitted, 9),
                "error": type(exc).__name__,
                "detail": str(exc),
            }
        except Exception as exc:  # noqa: BLE001 — untyped = I1 violation
            runtime.spans.abandon_app(
                afg.name, reason=type(exc).__name__, source="chaos"
            )
            outcomes[afg.name] = {
                "status": "crashed",
                "site": submit_site,
                "submitted_at": round(submitted, 9),
                "error": type(exc).__name__,
                "detail": str(exc),
            }

    procs = []
    for i, afg in enumerate(_build_apps(config)):
        submit_site = sites[i % len(sites)]
        delay = config.first_submit_s + i * config.app_spacing_s
        procs.append(sim.process(
            run_app(afg, submit_site, delay,
                    corrupt_journal=(i == journal_victim)),
            name=f"chaos:{afg.name}",
        ))

    # -- the arrival storm (bounded admission under overload) ---------------
    storm_queue = None
    storm_names: List[str] = []
    if config.storm_apps:
        from repro.workloads.pipelines import linear_pipeline

        storm_site = sites[0]
        users_db = runtime.repositories[storm_site].users
        for j in range(config.storm_users):
            users_db.add_user(
                f"storm{j}", "storm-pass", priority=1 + j % 3,
                access_domain=AccessDomain.GLOBAL,
            )
        storm_queue = AdmissionQueue(
            runtime,
            max_concurrent=config.storm_max_concurrent,
            site=storm_site,
            policy=AdmissionPolicy(
                max_queued=config.storm_max_queued,
                user_rate_per_s=config.storm_user_rate_per_s,
                user_burst=config.storm_user_burst,
                default_ttl_s=config.storm_ttl_s,
            ),
        )

        def run_storm_app(afg, user: str, delay: float,
                          deadline: Optional[float]):
            yield Timeout(delay)
            submitted = sim.now
            try:
                result = yield storm_queue.submit(
                    afg, user,
                    scheduler=SiteScheduler(k=config.k, model=runtime.model),
                    deadline_s=deadline,
                )
                outcomes[afg.name] = {
                    "status": "completed",
                    "site": storm_site,
                    "user": user,
                    "submitted_at": round(submitted, 9),
                    "makespan_s": round(result.makespan, 9),
                }
            except AdmissionRejected as exc:
                outcomes[afg.name] = {
                    "status": "rejected",
                    "site": storm_site,
                    "user": user,
                    "submitted_at": round(submitted, 9),
                    "error": exc.reason,
                }
            except AdmissionExpired as exc:
                outcomes[afg.name] = {
                    "status": "expired",
                    "site": storm_site,
                    "user": user,
                    "submitted_at": round(submitted, 9),
                    "error": f"waited {exc.waited_s:.3f}s",
                }
            except typed_errors as exc:
                outcomes[afg.name] = {
                    "status": "failed",
                    "site": storm_site,
                    "user": user,
                    "submitted_at": round(submitted, 9),
                    "error": type(exc).__name__,
                    "detail": str(exc),
                }
            except Exception as exc:  # noqa: BLE001 — untyped = I1 violation
                outcomes[afg.name] = {
                    "status": "crashed",
                    "site": storm_site,
                    "user": user,
                    "submitted_at": round(submitted, 9),
                    "error": type(exc).__name__,
                    "detail": str(exc),
                }

        for i in range(config.storm_apps):
            afg = linear_pipeline(n_stages=3, cost=4.0, edge_mb=1.0)
            afg.name = f"storm{i:02d}-{afg.name}"
            storm_names.append(afg.name)
            delay = (
                config.storm_start_s
                + (i // config.storm_burst) * config.storm_spacing_s
            )
            deadline = (
                config.storm_deadline_s
                if config.storm_deadline_s is not None and i % 3 == 2
                else None
            )
            procs.append(sim.process(
                run_storm_app(afg, f"storm{i % config.storm_users}",
                              delay, deadline),
                name=f"chaos:{afg.name}",
            ))

    # -- run ----------------------------------------------------------------
    sim.run(until=config.duration_s)
    grace_rounds = 0
    while any(not p.triggered for p in procs) and grace_rounds < 8:
        sim.run(until=sim.now + config.duration_s / 2)
        grace_rounds += 1
    # applications still in flight when the campaign stops leave their
    # spans open; mark them as orphans explicitly so I9 can tell a
    # deliberate cut-off from a silent leak
    runtime.spans.orphan_all(reason="campaign_end", source="chaos")

    # -- audit ---------------------------------------------------------------
    violations: List[str] = []

    # I1: typed completion
    for proc in procs:
        if not proc.triggered:
            violations.append(f"I1: application {proc.name!r} never settled")
    for name in sorted(outcomes):
        if outcomes[name]["status"] == "crashed":
            violations.append(
                f"I1: application {name!r} died with untyped "
                f"{outcomes[name]['error']}: {outcomes[name]['detail']}"
            )

    # I2: no successful attempt starts on a believed-down host
    believed_down = _believed_down_intervals(runtime.stats.detection_log)
    for coordinator in coordinators:
        for record in coordinator.records.values():
            if record.measured_time <= 0 or record.finished_at <= record.started_at:
                continue
            start = record.finished_at - record.measured_time
            for host in record.hosts:
                for down_at, up_at in believed_down.get(host, []):
                    if (down_at + _REPORT_DELIVERY_SLACK_S <= start
                            and (up_at is None or start < up_at)):
                        violations.append(
                            f"I2: task {record.task_id!r} of "
                            f"{coordinator.afg.name!r} started at {start:.3f} "
                            f"on {host!r}, believed down since {down_at:.3f}"
                        )

    # I4: injection log <-> detection log reconciliation
    detections = list(runtime.stats.detection_log)
    observed_fp = sum(
        gm.false_positives for gm in runtime.group_managers.values()
    )
    host_names = [h.name for h in all_hosts]
    down_intervals = {h: injector.downtime_intervals(h) for h in host_names}

    def actually_down(host: str, t: float) -> bool:
        return any(
            d <= t and (u is None or t < u)
            for d, u in down_intervals.get(host, [])
        )

    counted_fp = sum(
        1 for t, host, kind in detections
        if kind == "down" and host in down_intervals and not actually_down(host, t)
    )
    if counted_fp != observed_fp:
        violations.append(
            f"I4: false-positive reconciliation failed — {counted_fp} "
            f"detections of healthy hosts vs {observed_fp} recorded "
            "false positives"
        )
    if config.detector == "phi":
        # phi reaches phi_down once elapsed ≈ phi_down·ln10 mean
        # intervals; allow one period of phase lag plus slack
        window = (
            runtime.config.phi_down * math.log(10.0) + 3.0
        ) * config.echo_period_s
    else:
        window = (config.suspicion_threshold + 2) * config.echo_period_s
    for host in host_names:
        for down_at, up_at in down_intervals[host]:
            end = up_at if up_at is not None else sim.now
            if end - down_at <= window or down_at + window > sim.now:
                continue  # too short, or too close to campaign end
            if not _was_detected(detections, host, down_at, down_at + window):
                violations.append(
                    f"I4: outage of {host!r} at {down_at:.3f} "
                    f"(lasting {end - down_at:.3f}s) was never detected "
                    f"within the {window:.0f}s window"
                )

    # I5: resume equivalence — every completed app (restarted or not)
    # must reproduce the pure-evaluation oracle's terminal output hashes
    for name in sorted(completed_runs):
        app_afg, result = completed_runs[name]
        expected = expected_output_hashes(app_afg, runtime.registry)
        actual = final_output_hashes(result)
        if actual != expected:
            restarted = outcomes[name].get("restarted", False)
            violations.append(
                f"I5: application {name!r} "
                f"({'restarted' if restarted else 'uninterrupted'}) produced "
                f"output hashes {actual} != expected {expected}"
            )

    # I6: no orphaned group — every Site Manager re-registered, every
    # Group Manager live (original or deputy), every host owned by
    # exactly one live Group Manager
    for name in sorted(runtime.site_managers):
        if not runtime.site_managers[name].alive:
            violations.append(
                f"I6: site manager {name!r} still crashed at campaign end"
            )
    owners = {h: 0 for h in host_names}
    for gm_name in sorted(runtime.group_managers):
        gm = runtime.group_managers[gm_name]
        if not gm.alive:
            violations.append(
                f"I6: group {gm_name!r} has no live manager at campaign end"
            )
            continue
        for host in gm.host_names:
            owners[host] = owners.get(host, 0) + 1
    for host in sorted(owners):
        if owners[host] != 1:
            violations.append(
                f"I6: host {host!r} is owned by {owners[host]} live group "
                "managers (expected exactly 1)"
            )

    # I7: speculation safety — a completed application whose schedule
    # was decided by a backup win must still match the oracle exactly
    for coordinator in coordinators:
        wins = [
            e for e in coordinator.speculation_log
            if e["outcome"] == "backup_win"
        ]
        if not wins:
            continue
        name = coordinator.afg.name
        if name not in completed_runs:
            continue
        app_afg, result = completed_runs[name]
        expected = expected_output_hashes(app_afg, runtime.registry)
        actual = final_output_hashes(result)
        if actual != expected:
            violations.append(
                f"I7: application {name!r} completed with "
                f"{len(wins)} speculative backup win(s) but produced "
                f"output hashes {actual} != expected {expected}"
            )

    # I8: bounded waste — ≤1 backup per task attempt, every race a
    # completed application launched is resolved, and no backup starts
    # after its race was already decided
    for coordinator in coordinators:
        app_completed = coordinator.afg.name in completed_runs
        seen: Dict[Tuple[str, str, int], int] = {}
        for entry in coordinator.speculation_log:
            key = (entry["application"], entry["task"], entry["attempt"])
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                violations.append(
                    f"I8: task {entry['task']!r} of "
                    f"{entry['application']!r} (attempt {entry['attempt']}) "
                    f"launched {seen[key]} backups for one race"
                )
            resolved_at = entry["resolved_at"]
            if resolved_at is not None and resolved_at < entry["launched_at"]:
                violations.append(
                    f"I8: backup for task {entry['task']!r} of "
                    f"{entry['application']!r} launched at "
                    f"{entry['launched_at']:.3f}, after its race was "
                    f"decided at {resolved_at:.3f}"
                )
            if app_completed and (
                entry["outcome"] is None or resolved_at is None
            ):
                violations.append(
                    f"I8: application {entry['application']!r} completed "
                    f"but the backup for task {entry['task']!r} was never "
                    "resolved (leaked speculative copy)"
                )

    # I9: span integrity — every opened span closed exactly once or
    # explicitly orphan-marked (abandon on app death, campaign cut-off)
    if config.causal_spans:
        from repro.obs.attribution import span_integrity

        for problem in span_integrity(tracer.events()):
            violations.append(f"I9: {problem}")

    # I10: bounded admission — the queue never exceeded its bound and
    # every storm submission reached a terminal outcome
    if storm_queue is not None:
        if storm_queue.peak_queued > config.storm_max_queued:
            violations.append(
                f"I10: admission queue depth peaked at "
                f"{storm_queue.peak_queued}, exceeding the bound "
                f"{config.storm_max_queued}"
            )
        terminal = ("completed", "failed", "rejected", "expired")
        for name in storm_names:
            status = outcomes.get(name, {}).get("status")
            if status not in terminal:
                violations.append(
                    f"I10: storm application {name!r} ended in "
                    f"{status!r}, not a terminal admission outcome"
                )

    # I11: breaker silence — no message ever rides an open circuit
    if runtime.breakers is not None:
        for problem in runtime.breakers.open_violations(sim.now):
            violations.append(f"I11: {problem}")

    # I12/I13: data-plane integrity (only audited when armed)
    integrity_section = None
    if runtime.integrity is not None:
        ledger = runtime.integrity
        # I12: every consumption in the ledger is clean — a task never
        # received bytes that mismatched the producer's recorded hash
        for consumption in ledger.consumption_log:
            if not consumption["clean"]:
                violations.append(
                    f"I12: application {consumption['application']!r} "
                    f"consumed bytes on {consumption['edge']!r} that "
                    "mismatch the producer's recorded content hash"
                )
        # I13: every incident is repaired, or poisoned with its
        # application dead; a completed app never carries an open
        # incident and never completes past a poisoned artifact
        completed = {
            name for name, outcome in outcomes.items()
            if outcome["status"] == "completed"
        }
        for incident in ledger.incidents:
            resolution = incident["resolution"]
            app = incident["application"]
            if resolution in ("refetched", "regenerated"):
                continue
            if resolution == "poisoned":
                if app in completed:
                    violations.append(
                        f"I13: application {app!r} completed despite the "
                        f"poison-quarantined {incident['target']!r}"
                    )
                continue
            if app in completed:
                violations.append(
                    f"I13: application {app!r} completed with an "
                    f"unresolved {incident['kind']} incident on "
                    f"{incident['target']!r}"
                )
        integrity_section = ledger.as_dict()

    # I14/I15/I16: elastic membership (only audited when churn armed)
    membership_section = None
    if churn_targets:
        transitions = runtime.membership.transitions

        # I14: no successful attempt starts on a host after its
        # drain/departure transition became visible (attempts already
        # running at drain time are allowed to finish — that is the
        # drain grace, not a violation)
        inactive: Dict[str, List[List[Optional[float]]]] = {}
        for entry in transitions:
            if entry["transition"] in ("drain", "depart"):
                spans_ = inactive.setdefault(entry["host"], [])
                if not spans_ or spans_[-1][1] is not None:
                    spans_.append([entry["time"], None])
            elif entry["transition"] == "rejoin":
                spans_ = inactive.get(entry["host"], [])
                if spans_ and spans_[-1][1] is None:
                    spans_[-1][1] = entry["time"]
        for coordinator in coordinators:
            for record in coordinator.records.values():
                if record.measured_time <= 0:
                    continue
                start = record.finished_at - record.measured_time
                for host in record.hosts:
                    for opened, closed in inactive.get(host, []):
                        if opened < start and (closed is None or start < closed):
                            violations.append(
                                f"I14: task {record.task_id!r} of "
                                f"{coordinator.afg.name!r} started at "
                                f"{start:.3f} on {host!r}, non-ACTIVE "
                                f"since {opened:.3f}"
                            )

        # I15: work evicted or invalidated by a membership transition
        # completes elsewhere, or the application dies typed
        drain_affected = 0
        for coordinator in coordinators:
            name = coordinator.afg.name
            status = outcomes.get(name, {}).get("status")
            for record in coordinator.records.values():
                evictions = [
                    r for r in record.reschedule_reasons
                    if "membership change" in r or "decommissioned" in r
                    or "drained" in r
                ]
                if not evictions:
                    continue
                drain_affected += 1
                if status == "completed" and record.measured_time <= 0:
                    violations.append(
                        f"I15: task {record.task_id!r} of {name!r} was "
                        f"evicted by a membership transition and never "
                        f"completed, yet the application 'completed'"
                    )
                if status == "crashed":
                    violations.append(
                        f"I15: application {name!r} died untyped after "
                        f"task {record.task_id!r} was evicted by a "
                        f"membership transition"
                    )

        # I16: every churn target whose last transition is a rejoin
        # ends the campaign ACTIVE and re-scorable (in the runnable
        # table host selection iterates over)
        from repro.repository.resources import MembershipState

        last_transition = {}
        for entry in transitions:
            last_transition[entry["host"]] = entry
        task_types = runtime.registry.names()
        for host_name in sorted(churn_targets):
            last = last_transition.get(host_name)
            if last is None or last["transition"] != "rejoin":
                continue
            repo = runtime.repositories[last["site"]]
            if not repo.resources.has_host(host_name):
                violations.append(
                    f"I16: rejoined host {host_name!r} has no repository "
                    "row at campaign end"
                )
                continue
            state = repo.resources.membership_state(host_name)
            if state != MembershipState.ACTIVE:
                violations.append(
                    f"I16: rejoined host {host_name!r} ended the campaign "
                    f"in state {state}, not ACTIVE"
                )
                continue
            if repo.resources.get(host_name).up:
                runnable = any(
                    any(r.spec.name == host_name
                        for r in repo.runnable_up_hosts(t))
                    for t in task_types
                )
                if not runnable:
                    violations.append(
                        f"I16: rejoined host {host_name!r} is ACTIVE and "
                        "up but absent from every runnable table — host "
                        "selection will never re-score it"
                    )
        membership_section = {
            "targets": list(churn_targets),
            "drain_affected_tasks": drain_affected,
            "transitions": [
                {
                    "time": round(e["time"], 9),
                    "host": e["host"],
                    "site": e["site"],
                    "transition": e["transition"],
                    "epoch": e["epoch"],
                }
                for e in transitions
            ],
        }

    if trace_path is not None:
        from repro.trace.serialize import write_jsonl

        write_jsonl(tracer, trace_path)

    return ChaosReport(
        config=config,
        outcomes=outcomes,
        violations=violations,
        injection_events=len(injector.log),
        detections=len(detections),
        false_positives=observed_fp,
        final_time=sim.now,
        trace_hash=vdce.trace_hash(),
        metrics_hash=vdce.metrics_hash(),
        injection_log=[
            {
                "time": round(e.time, 9),
                "target": e.host,
                "kind": e.kind,
                "factor": round(e.factor, 9),
            }
            for e in injector.log
        ],
        speculative_launches=runtime.stats.speculative_launches,
        speculative_wins=runtime.stats.speculative_wins,
        speculative_wasted_s=runtime.stats.speculative_wasted_s,
        quarantined_hosts=(
            sorted(runtime.health.quarantined_hosts())
            if runtime.health is not None else []
        ),
        sheds=(len(storm_queue.shed_log) if storm_queue is not None else 0),
        shed_log=(
            list(storm_queue.shed_log) if storm_queue is not None else []
        ),
        peak_queued=(
            storm_queue.peak_queued if storm_queue is not None else 0
        ),
        brownout_shifts=(
            len(runtime.brownout.shifts)
            if runtime.brownout is not None else 0
        ),
        breaker_transitions=(
            len(runtime.breakers.transitions)
            if runtime.breakers is not None else 0
        ),
        breaker_fast_fails=(
            runtime.breakers.fast_fails
            if runtime.breakers is not None else 0
        ),
        integrity=integrity_section,
        membership=membership_section,
    )


def _believed_down_intervals(
    detection_log,
) -> Dict[str, List[Tuple[float, Optional[float]]]]:
    """Per-host ``(down_at, up_at)`` intervals from the detection log."""
    intervals: Dict[str, List[Tuple[float, Optional[float]]]] = {}
    open_at: Dict[str, float] = {}
    for t, host, kind in detection_log:
        if kind == "down" and host not in open_at:
            open_at[host] = t
        elif kind == "up" and host in open_at:
            intervals.setdefault(host, []).append((open_at.pop(host), t))
    for host, t in open_at.items():
        intervals.setdefault(host, []).append((t, None))
    return intervals


def _was_detected(detections, host: str, start: float, deadline: float) -> bool:
    """Was ``host`` believed down at any point in [start, deadline]?

    True if a "down" detection lands in the window, or the host was
    already believed down when the outage began (prior "down" with no
    intervening "up").
    """
    state_down = False
    for t, h, kind in detections:
        if h != host:
            continue
        if t < start:
            state_down = kind == "down"
        elif t <= deadline and kind == "down":
            return True
        elif t > deadline:
            break
    return state_down

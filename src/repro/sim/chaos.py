"""Chaos campaigns: randomized fault injection with checked invariants.

A campaign stands up a full VDCE deployment, starts the monitoring
control plane, arms scripted and stochastic fault injectors (host
crashes, WAN link outages, a mid-campaign partition, manager crashes,
control-message loss, payload corruption, membership churn), submits a stream of applications, and
then audits what the run left behind against invariants I1–I17 — one
checker each, catalogued in :mod:`repro.sim.invariants`.  I3,
*determinism* — the same config yields byte-identical trace and
metrics hashes — is checked by running the campaign twice (``repro
chaos --check-determinism``).

:func:`run_campaign` is three stages that hand each other plain data:

* **plan** — :func:`_arm` draws every victim from the named stream
  ``chaos:plan``, in one fixed order (:func:`_draw`), and arms the
  injectors; fault processes then draw from their per-target streams;
* **run** — the application stream (:func:`_run_app`) and the arrival
  storm (:func:`_run_storm_app`) record one outcome per application
  (:func:`_outcome`) into a :class:`~repro.sim.invariants.CampaignRun`;
* **audit** — every checker in
  :data:`~repro.sim.invariants.INVARIANTS` reads that record.

Campaigns can also inject *performance* faults — scripted host
slowdowns and stochastic slow/normal flapping — and enable the
straggler defenses (phi-accrual detection, speculative re-execution,
host-health quarantine) they exist to stress.

A :class:`ChaosConfig` field is a knob some caller turns; a value no
caller sets is a module constant beside the code that reads it.
Everything is deterministic, and the report's
:meth:`~ChaosReport.campaign_hash` is a content hash of the whole
outcome — the whole config included — and the regression oracle the
CLI and CI lean on.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import refuse_non_finite
from repro.hashing import canonical_json
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Timeout
from repro.sim.presets import PRESETS

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "PRESETS",
    "STORM_MAX_QUEUED",
    "preset",
    "run_campaign",
    "smoke_config",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a campaign depends on — hash this, and you hash the run."""

    seed: int = 0
    n_sites: int = 3
    hosts_per_site: int = 4
    n_apps: int = 4
    #: nominal campaign length; apps may run past it, faults keep going
    duration_s: float = 300.0
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
    # scripted Group Manager crash (victim drawn from chaos:plan);
    # permanent — the group's monitors must elect a deputy.  None disables
    gm_crash_at_s: Optional[float] = None
    # scripted Site Manager crash; the server re-registers after
    # _SM_CRASH_DURATION_S, and in-flight applications it owned must
    # checkpoint-restart on a surviving site.  None disables
    sm_crash_at_s: Optional[float] = None
    # control-message quality (WAN message loss; echo loss is LAN-side)
    message_loss_prob: float = 0.05
    echo_loss_prob: float = 0.05
    # performance faults: scripted slowdowns + stochastic slow/normal
    # flapping (victims drawn from chaos:plan, after all crash victims,
    # so enabling them never perturbs an existing config's fault plan)
    n_slow_hosts: int = 0
    slowdown_at_s: float = 50.0
    slowdown_duration_s: float = 60.0
    slowdown_factor: float = 8.0
    n_flapping_hosts: int = 0
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
    #: deadline carried by every third storm submission (None disables)
    storm_deadline_s: Optional[float] = None
    #: per-user token-bucket rate limit (None = no rate limiting)
    storm_user_rate_per_s: Optional[float] = None
    # overload-protection features under test (defaults mirror
    # RuntimeConfig: off)
    overload: bool = False
    breakers: bool = False
    # data-plane integrity (DESIGN §16): end-to-end checksums and the
    # refetch → lineage-regeneration → poison repair ladder, at the
    # default budgets.  Default mirrors RuntimeConfig: off
    data_integrity: bool = False
    # corruption faults: armed WAN links flip/truncate payloads with
    # these per-transfer probabilities (victims drawn from chaos:plan
    # after every other victim, so arming never perturbs crash plans)
    n_corrupt_links: int = 0
    link_corrupt_prob: float = 0.0
    link_truncate_prob: float = 0.0
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
    # no victims drawn, no extra RNG
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
        refuse_non_finite(self)
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
        if self.detector not in ("count", "phi"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.storm_apps < 0:
            raise ValueError("storm_apps must be non-negative")
        if self.n_corrupt_links < 0:
            raise ValueError("n_corrupt_links must be non-negative")
        if not (0.0 <= self.link_corrupt_prob < 1.0):
            raise ValueError("link_corrupt_prob must be in [0, 1)")
        if not (0.0 <= self.link_truncate_prob < 1.0):
            raise ValueError("link_truncate_prob must be in [0, 1)")
        if self.link_corrupt_prob + self.link_truncate_prob >= 1.0:
            raise ValueError("corruption probabilities must sum below 1")
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


def preset(name: str, seed: int = 0) -> ChaosConfig:
    """The campaign ``repro chaos --<name>`` runs, at ``seed``."""
    fields = {k: v for k, v in PRESETS[name].items() if k != "doc"}
    return ChaosConfig(seed=seed, **fields)


def smoke_config(seed: int = 0) -> ChaosConfig:
    """``preset("smoke", seed)``: the benchmark's campaign base."""
    return preset("smoke", seed)


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
        document = {
            "config": asdict(self.config),
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
        if self.integrity:
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


#: consecutive missed echoes before a campaign's count detector declares
#: a host down: two, so one lost echo on the lossy LAN is no false positive
_SUSPICION_THRESHOLD = 2


def _deploy(config: ChaosConfig):
    """Stand up the deployment under test, traced, monitoring started."""
    # imported in the functions that use them, here and below:
    # repro.sim must not depend on the upper layers at import time (the
    # facade imports back down into repro.sim)
    from repro.core.vdce import VDCE
    from repro.metrics.registry import MetricsRegistry
    from repro.runtime.straggler import SpeculationPolicy
    from repro.runtime.vdce_runtime import RuntimeConfig
    from repro.trace.tracer import Tracer

    vdce = VDCE.standard(
        n_sites=config.n_sites,
        hosts_per_site=config.hosts_per_site,
        seed=config.seed,
        runtime_config=RuntimeConfig(
            echo_loss_prob=config.echo_loss_prob,
            suspicion_threshold=_SUSPICION_THRESHOLD,
            detector=config.detector,
            speculation=SpeculationPolicy() if config.speculation else None,
            health=config.health,
            causal_spans=config.causal_spans,
            overload=config.overload,
            breaker=config.breakers,
            data_integrity=config.data_integrity,
        ),
        tracer=Tracer(),
        metrics=MetricsRegistry(),
    )
    vdce.start_monitoring()
    if config.message_loss_prob > 0 and config.n_sites > 1:
        vdce.topology.network.set_message_loss(config.message_loss_prob)
    return vdce


# -- plan: every chaos:plan draw, in one fixed order --------------------------

def _draw(rng, population, n: Optional[int] = None) -> list:
    """Victims from ``population``, in population order.

    ``n`` distinct members as one sample without replacement — and no
    draw at all when that is zero; ``n=None`` is a single victim as one
    scalar draw.  The call shapes are part of the contract: the stream
    position after each decides every later victim, so a committed
    campaign hash pins them.
    """
    if n is None:
        return [population[rng.choice(len(population))]]
    n = min(n, len(population))
    if not n:
        return []
    picks = sorted(rng.choice(len(population), size=n, replace=False))
    return [population[i] for i in picks]


#: a crashed Site Manager's server re-registers this long after the crash
_SM_CRASH_DURATION_S = 45.0
#: stochastic slow/normal flapping: mean phase lengths and the slow
#: phase's slowdown factor
_FLAP_MEAN_NORMAL_S = 40.0
_FLAP_MEAN_SLOW_S = 15.0
_FLAP_FACTOR = 6.0
#: corrupting links are armed at this time, for the rest of the campaign
_CORRUPTION_AT_S = 10.0


def _arm(
    config: ChaosConfig, vdce, injector: FailureInjector
) -> Tuple[Optional[int], List[str]]:
    """Arm every injector the config asks for.

    Returns the index of the application whose journal rots (or None)
    and the churn victims.  Each fault family draws its victims after
    every family older than it, so arming a newer one never perturbs an
    existing config's fault plan.
    """
    rng = vdce.sim.rng("chaos:plan")
    runtime, network, sites = vdce.runtime, vdce.topology.network, vdce.sites
    hosts = sorted(vdce.topology.all_hosts, key=lambda h: h.name)
    site_pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
    for host in _draw(rng, hosts, config.n_flaky_hosts):
        injector.start_random(host, config.host_mtbf_s, config.host_mttr_s)
    for pair in _draw(rng, site_pairs, config.n_flaky_links):
        injector.start_random_link(
            network.wan_link(*pair), config.link_mtbf_s, config.link_mttr_s
        )
    if config.partition_at_s is not None and config.n_sites > 1:
        injector.schedule_partition(
            network, [[sites[0]], sites[1:]],
            start=config.partition_at_s, duration=config.partition_duration_s,
        )
    if config.gm_crash_at_s is not None:
        (victim,) = _draw(rng, sorted(runtime.group_managers))
        injector.schedule_group_manager_crash(
            runtime.group_managers[victim], config.gm_crash_at_s
        )
    if config.sm_crash_at_s is not None:
        (victim,) = _draw(rng, sites)
        injector.schedule_site_manager_crash(
            runtime.site_managers[victim], config.sm_crash_at_s,
            duration=_SM_CRASH_DURATION_S,
        )
    for host in _draw(rng, hosts, config.n_slow_hosts):
        injector.schedule_host_slowdown(
            host,
            start=config.slowdown_at_s,
            duration=config.slowdown_duration_s,
            factor=config.slowdown_factor,
        )
    for host in _draw(rng, hosts, config.n_flapping_hosts):
        injector.start_flapping(
            host,
            mean_normal_s=_FLAP_MEAN_NORMAL_S,
            mean_slow_s=_FLAP_MEAN_SLOW_S,
            factor=_FLAP_FACTOR,
        )
    for pair in _draw(rng, site_pairs, config.n_corrupt_links):
        injector.schedule_link_corruption(
            network.wan_link(*pair),
            time=_CORRUPTION_AT_S,
            corrupt_prob=config.link_corrupt_prob,
            truncate_prob=config.link_truncate_prob,
        )
    if config.artifact_loss_at_s is not None:  # needs data_integrity
        (victim,) = _draw(rng, hosts)
        injector.schedule_artifact_loss(
            runtime.integrity, victim.name, config.artifact_loss_at_s
        )
    journal_victim = None
    if config.journal_corrupt_at_s is not None:
        (journal_victim,) = _draw(rng, range(config.n_apps))
    return journal_victim, _arm_churn(config, vdce, injector, rng, hosts)


def _arm_churn(
    config: ChaosConfig, vdce, injector: FailureInjector, rng, hosts
) -> List[str]:
    """Draw and schedule the membership-churn victims (the last
    ``chaos:plan`` draw).  Group leaders and site servers are never
    eligible — the control plane they run is not what elastic
    membership removes."""
    if not config.n_churn_hosts:
        return []
    protected = set()
    for site_name in vdce.sites:
        site = vdce.topology.site(site_name)
        protected.add(site.server_host.name)
        protected.update(group.spec.leader for group in site.groups.values())
    eligible = sorted(h.name for h in hosts if h.name not in protected)
    targets = _draw(rng, eligible, config.n_churn_hosts)
    by_site: Dict[str, List[str]] = {}
    for name in targets:
        by_site.setdefault(vdce.topology.host(name).site_name, []).append(name)
    for site_name in sorted(by_site):
        injector.schedule_churn(
            vdce.runtime.site_managers[site_name], by_site[site_name],
            start=config.churn_start_s,
            window_s=config.churn_window_s,
            drain_deadline_s=config.churn_drain_deadline_s,
            rejoin_after_s=config.churn_rejoin_after_s,
        )
    return targets


# -- run: the application stream and the storm --------------------------------

def _outcome(status: str, site: str, submitted: float, **extra) -> Dict[str, Any]:
    """One application's entry in :attr:`ChaosReport.outcomes`."""
    return {
        "status": status,
        "site": site,
        "submitted_at": round(submitted, 9),
        **extra,
    }


def _died(site: str, submitted: float, exc: Exception, **extra) -> Dict[str, Any]:
    """The outcome of an application an exception ended: ``failed``
    when the error is typed, ``crashed`` — an I1 violation — when not."""
    from repro.sim.invariants import TYPED_ERRORS

    return _outcome(
        "failed" if isinstance(exc, TYPED_ERRORS) else "crashed",
        site, submitted, **extra,
        error=type(exc).__name__, detail=str(exc),
    )


def _run_app(run, afg, submit_site: str, delay: float, corrupt_journal: bool):
    """One application of the stream, from submission to its outcome."""
    from repro.net.rpc import ManagerUnavailable
    from repro.runtime.checkpoint import ApplicationCheckpoint, CheckpointJournal
    from repro.runtime.execution import ExecutionCoordinator
    from repro.scheduler.site_scheduler import SiteScheduler

    config, runtime, sim = run.config, run.runtime, run.runtime.sim
    yield Timeout(delay)
    submitted = sim.now
    # every app journals to an in-memory journal: same record stream
    # and byte accounting as a durable one, no filesystem
    journal = CheckpointJournal(None)
    if corrupt_journal:
        # the journal exists only from submission on; a fault slot
        # already in the past fires immediately
        run.injector.schedule_journal_corruption(
            journal, max(config.journal_corrupt_at_s, sim.now), label=afg.name
        )
    restarted = False
    try:
        try:
            table, _sched = yield from runtime.schedule_process(
                afg, SiteScheduler(k=config.k, model=runtime.model),
                local_site=submit_site,
            )
            coordinator = ExecutionCoordinator(
                runtime, afg, table, submit_site=submit_site, journal=journal,
            )
            run.coordinators.append(coordinator)
            result = yield coordinator.start()
        except ManagerUnavailable:
            # the owning Site Manager crashed mid-flight: restart the
            # application from its checkpoint on a surviving site;
            # completed tasks are restored, only the frontier re-runs
            survivors = [
                s for s in runtime.topology.site_names
                if runtime.site_managers[s].alive and s != submit_site
            ]
            if not survivors:
                raise
            # the dead incarnation's open spans are orphan-marked;
            # the restart opens a fresh root window for the app
            runtime.spans.abandon_app(
                afg.name, reason="ManagerUnavailable", source="chaos"
            )
            checkpoint = ApplicationCheckpoint.from_records(journal.records())
            restarted = True
            submit_site = survivors[0]
            coordinator = ExecutionCoordinator(
                runtime, checkpoint.afg, checkpoint.table,
                submit_site=submit_site, journal=journal, checkpoint=checkpoint,
            )
            run.coordinators.append(coordinator)
            result = yield coordinator.start()
        run.outcomes[afg.name] = _outcome(
            "completed", submit_site, submitted,
            restarted=restarted,
            makespan_s=round(result.makespan, 9),
            reschedules=result.reschedules,
            transfer_retries=result.transfer_retries,
            channel_reestablishes=result.channel_reestablishes,
            sites_used=sorted({r.site for r in result.records.values()}),
        )
        run.completed_runs[afg.name] = (coordinator.afg, result)
    except Exception as exc:  # noqa: BLE001 — _died tells typed from not
        runtime.spans.abandon_app(
            afg.name, reason=type(exc).__name__, source="chaos"
        )
        run.outcomes[afg.name] = _died(submit_site, submitted, exc)


def _run_storm_app(run, afg, user: str, delay: float, deadline: Optional[float]):
    """One storm submission through the bounded admission queue."""
    from repro.runtime.admission import AdmissionExpired, AdmissionRejected
    from repro.scheduler.site_scheduler import SiteScheduler

    queue, runtime = run.storm_queue, run.runtime
    yield Timeout(delay)
    submitted = runtime.sim.now
    try:
        result = yield queue.submit(
            afg, user,
            scheduler=SiteScheduler(k=run.config.k, model=runtime.model),
            deadline_s=deadline,
        )
        outcome = _outcome(
            "completed", queue.site, submitted,
            user=user, makespan_s=round(result.makespan, 9),
        )
    except AdmissionRejected as exc:
        outcome = _outcome(
            "rejected", queue.site, submitted, user=user, error=exc.reason
        )
    except AdmissionExpired as exc:
        outcome = _outcome(
            "expired", queue.site, submitted,
            user=user, error=f"waited {exc.waited_s:.3f}s",
        )
    except Exception as exc:  # noqa: BLE001 — _died tells typed from not
        outcome = _died(queue.site, submitted, exc, user=user)
    run.outcomes[afg.name] = outcome


#: the arrival storm's first burst
_STORM_START_S = 10.0
#: submissions per burst (a burst lands at one instant)
_STORM_BURST = 6
_STORM_SPACING_S = 4.0
#: distinct storm users, cycled over submissions; user ``stormJ``
#: has priority ``1 + J % 3``
_STORM_USERS = 3
#: the storm's admission-queue bound (I10 audits the queue against it)
STORM_MAX_QUEUED = 8
_STORM_MAX_CONCURRENT = 2
#: in-queue TTL every storm submission carries
_STORM_TTL_S = 45.0


def _submit_storm(run, site: str) -> None:
    """The arrival storm: ``storm_apps`` small pipelines in bursts, from
    ``_STORM_USERS`` accounts, through one bounded admission queue."""
    from repro.repository.users import AccessDomain
    from repro.runtime.admission import AdmissionPolicy, AdmissionQueue
    from repro.workloads.pipelines import linear_pipeline

    config, runtime = run.config, run.runtime
    users_db = runtime.repositories[site].users
    for j in range(_STORM_USERS):
        users_db.add_user(
            f"storm{j}", "storm-pass", priority=1 + j % 3,
            access_domain=AccessDomain.GLOBAL,
        )
    run.storm_queue = AdmissionQueue(
        runtime,
        max_concurrent=_STORM_MAX_CONCURRENT,
        site=site,
        policy=AdmissionPolicy(
            max_queued=STORM_MAX_QUEUED,
            user_rate_per_s=config.storm_user_rate_per_s,
            default_ttl_s=_STORM_TTL_S,
        ),
    )
    for i in range(config.storm_apps):
        afg = linear_pipeline(n_stages=3, cost=4.0, edge_mb=1.0)
        afg.name = f"storm{i:02d}-{afg.name}"
        run.storm_names.append(afg.name)
        delay = _STORM_START_S + (i // _STORM_BURST) * _STORM_SPACING_S
        deadline = (
            config.storm_deadline_s
            if config.storm_deadline_s is not None and i % 3 == 2
            else None
        )
        run.procs.append(runtime.sim.process(
            _run_storm_app(
                run, afg, f"storm{i % _STORM_USERS}", delay, deadline
            ),
            name=f"chaos:{afg.name}",
        ))


#: when the first application of the stream is submitted
_FIRST_SUBMIT_S = 5.0


def _play(config: ChaosConfig):
    """Plan and run one campaign: deploy, arm, submit, advance the
    clock until every application settles (or the grace runs out).
    Returns the deployment and the :class:`CampaignRun` to audit."""
    from repro.sim.invariants import CampaignRun

    vdce = _deploy(config)
    sim, sites = vdce.sim, vdce.sites
    injector = FailureInjector(sim)
    journal_victim, churn_targets = _arm(config, vdce, injector)
    run = CampaignRun(
        config, vdce.runtime, injector,
        hosts=sorted(h.name for h in vdce.topology.all_hosts),
        churn_targets=churn_targets,
    )
    for i, afg in enumerate(_build_apps(config)):
        run.procs.append(sim.process(
            _run_app(
                run, afg, sites[i % len(sites)],
                _FIRST_SUBMIT_S + i * config.app_spacing_s,
                corrupt_journal=(i == journal_victim),
            ),
            name=f"chaos:{afg.name}",
        ))
    if config.storm_apps:
        _submit_storm(run, sites[0])

    sim.run(until=config.duration_s)
    grace_rounds = 0
    while any(not p.triggered for p in run.procs) and grace_rounds < 8:
        sim.run(until=sim.now + config.duration_s / 2)
        grace_rounds += 1
    # applications still in flight when the campaign stops leave their
    # spans open; mark them as orphans explicitly so I9 can tell a
    # deliberate cut-off from a silent leak
    vdce.runtime.spans.orphan_all(reason="campaign_end", source="chaos")
    run.events = vdce.tracer.events()
    return vdce, run


# -- report -------------------------------------------------------------------

def _membership_section(run) -> Optional[Dict[str, Any]]:
    """The membership-transition audit trail (None unless churn armed)."""
    from repro.sim.invariants import churn_evictions

    if not run.churn_targets:
        return None
    return {
        "targets": list(run.churn_targets),
        "drain_affected_tasks": sum(1 for _ in churn_evictions(run)),
        "transitions": [
            {
                "time": round(e["time"], 9),
                "host": e["host"],
                "site": e["site"],
                "transition": e["transition"],
                "epoch": e["epoch"],
            }
            for e in run.runtime.membership.transitions
        ],
    }


def _report(vdce, run, violations: List[str]) -> ChaosReport:
    runtime, queue = run.runtime, run.storm_queue
    return ChaosReport(
        config=run.config,
        outcomes=run.outcomes,
        violations=violations,
        injection_events=len(run.injector.log),
        detections=len(runtime.stats.detection_log),
        false_positives=sum(
            gm.false_positives for gm in runtime.group_managers.values()
        ),
        final_time=vdce.sim.now,
        trace_hash=vdce.trace_hash(),
        metrics_hash=vdce.metrics_hash(),
        injection_log=[
            {
                "time": round(e.time, 9),
                "target": e.host,
                "kind": e.kind,
                "factor": round(e.factor, 9),
            }
            for e in run.injector.log
        ],
        speculative_launches=runtime.stats.speculative_launches,
        speculative_wins=runtime.stats.speculative_wins,
        speculative_wasted_s=runtime.stats.speculative_wasted_s,
        quarantined_hosts=runtime.health.quarantined_hosts(),
        sheds=len(queue.shed_log) if queue is not None else 0,
        shed_log=list(queue.shed_log) if queue is not None else [],
        peak_queued=queue.peak_queued if queue is not None else 0,
        brownout_shifts=len(runtime.brownout.shifts),
        breaker_transitions=len(runtime.breakers.transitions),
        breaker_fast_fails=runtime.breakers.fast_fails,
        integrity=(
            runtime.integrity.as_dict() if run.config.data_integrity else None
        ),
        membership=_membership_section(run),
    )


def run_campaign(
    config: ChaosConfig, trace_path: Optional[str] = None
) -> ChaosReport:
    """Run one chaos campaign and audit it; never raises on faults —
    fault-tolerance failures surface as :attr:`ChaosReport.violations`.

    ``trace_path`` writes the campaign's full event trace (JSONL) for
    offline analysis — with ``causal_spans`` on, ``repro explain`` can
    attribute each application's time from that file.
    """
    from repro.sim.invariants import INVARIANTS

    vdce, run = _play(config)
    violations = [problem for check in INVARIANTS for problem in check(run)]
    if trace_path is not None:
        from repro.trace.serialize import write_jsonl

        write_jsonl(vdce.tracer, trace_path)
    return _report(vdce, run, violations)

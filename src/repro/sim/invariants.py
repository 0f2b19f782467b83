"""What a chaos campaign must satisfy: one checker per invariant.

:func:`repro.sim.chaos.run_campaign` plans a campaign, runs it, and
hands what it left behind — a :class:`CampaignRun` — to every checker
in :data:`INVARIANTS`, in order: I1, I2, I4 … I17 (I3, determinism, is
a second run — ``repro chaos --check-determinism`` — not a checker).
A checker is a plain function ``(run) -> List[str]``: it reads only its
argument, returns one line per violation, and ``[]`` when the subsystem
it audits was not armed.  Its docstring is the invariant's catalogue
entry; DESIGN §9 tabulates what each one reads.

This module sits on top of every layer it audits, so
``repro.sim.__init__`` must not import it (``run_campaign`` does, when
called).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import DataIntegrityError, JournalCorruptError
from repro.net.rpc import ManagerUnavailable, RpcTimeout
from repro.obs.attribution import span_integrity
from repro.repository.resources import MembershipState
from repro.runtime.checkpoint import expected_output_hashes, final_output_hashes
from repro.runtime.execution import ExecutionError
from repro.scheduler.site_scheduler import SchedulingError
from repro.sim.failures import FailureInjector, inside, intervals
from repro.sim.host import HostDownError
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.chaos import ChaosConfig

__all__ = ["CampaignRun", "INVARIANTS", "TYPED_ERRORS", "churn_evictions"]

#: what an application may die of (I1); anything else is a crash
TYPED_ERRORS = (
    ExecutionError, SchedulingError, RpcTimeout, ManagerUnavailable,
    HostDownError, DataIntegrityError, JournalCorruptError,
)

#: worst-case lag between a Group Manager detection and the repository
#: update it triggers (one lossless LAN notify), plus scheduling slack
_REPORT_DELIVERY_SLACK_S = 0.5


@dataclass
class CampaignRun:
    """What one campaign left behind — everything the checkers read."""

    config: "ChaosConfig"
    #: the deployment's :class:`~repro.runtime.vdce_runtime.VDCERuntime`
    runtime: Any
    #: ground truth: its ``log`` is what was actually injected
    injector: FailureInjector
    #: every host of the deployment as armed (before any churn), sorted
    hosts: List[str] = field(default_factory=list)
    #: hosts drawn to drain/depart (empty unless churn is armed)
    churn_targets: List[str] = field(default_factory=list)
    #: one ``chaos:<app>`` kernel process per submitted application
    procs: List[Any] = field(default_factory=list)
    #: application name -> outcome dict (what the report serialises)
    outcomes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: every ExecutionCoordinator started, restarts included
    coordinators: List[Any] = field(default_factory=list)
    #: application name -> (afg, ApplicationResult) of the completed run
    completed_runs: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    #: the storm's AdmissionQueue (None unless ``storm_apps > 0``)
    storm_queue: Optional[Any] = None
    storm_names: List[str] = field(default_factory=list)
    #: the tracer's events at campaign end
    events: List[Any] = field(default_factory=list, repr=False)

    @cached_property
    def oracle(self) -> Dict[str, Tuple[Dict[str, str], Dict[str, str]]]:
        """Per completed application, by name: ``(actual, expected)``
        terminal output hashes — the run's against the pure-evaluation
        oracle's.  Computed once; I5 and I7 both read it."""
        return {
            name: (
                final_output_hashes(result),
                expected_output_hashes(afg, self.runtime.registry),
            )
            for name, (afg, result) in sorted(self.completed_runs.items())
        }


def _starts(run: CampaignRun) -> Iterator[Tuple[str, Any, str, float]]:
    """Every successful task attempt, once per host it ran on:
    (application, record, host, start time)."""
    for coordinator in run.coordinators:
        for record in coordinator.records.values():
            if record.measured_time > 0:
                start = record.finished_at - record.measured_time
                for host in record.hosts:
                    yield coordinator.afg.name, record, host, start


def churn_evictions(run: CampaignRun) -> Iterator[Tuple[str, Any]]:
    """Every task record a membership transition evicted or invalidated
    at least once: (application, record)."""
    for coordinator in run.coordinators:
        for record in coordinator.records.values():
            if any(
                "membership change" in reason or "decommissioned" in reason
                or "drained" in reason
                for reason in record.reschedule_reasons
            ):
                yield coordinator.afg.name, record


def typed_completion(run: CampaignRun) -> List[str]:
    """I1 — typed completion: every application either completes or
    fails with one of :data:`TYPED_ERRORS`.  An untyped exception and
    an application that never settles are violations."""
    problems = [
        f"I1: application {proc.name!r} never settled"
        for proc in run.procs if not proc.triggered
    ]
    for name in sorted(run.outcomes):
        outcome = run.outcomes[name]
        if outcome["status"] == "crashed":
            problems.append(
                f"I1: application {name!r} died with untyped "
                f"{outcome['error']}: {outcome['detail']}"
            )
    return problems


def no_believed_down_start(run: CampaignRun) -> List[str]:
    """I2 — no believed-down placement: no successful task attempt
    starts on a host while the failure detector believes it down
    (reads the detection log against every coordinator's records)."""
    believed = intervals(run.runtime.stats.detection_log, ("down",), ("up",))
    problems = []
    for app, record, host, start in _starts(run):
        hit = inside(believed.get(host, ()), start)
        if (hit and hit[0] + _REPORT_DELIVERY_SLACK_S <= start
                and record.finished_at > record.started_at):
            problems.append(
                f"I2: task {record.task_id!r} of {app!r} started at {start:.3f} "
                f"on {host!r}, believed down since {hit[0]:.3f}"
            )
    return problems


def reconciliation(run: CampaignRun) -> List[str]:
    """I4 — reconciliation: the injection log (ground truth) and the
    detection log (what the Group Managers reported) agree — every
    false positive is accounted for, and every sufficiently long real
    outage is detected within the echo protocol's detection window."""
    runtime, config, now = run.runtime, run.config, run.runtime.sim.now
    detections = runtime.stats.detection_log
    believed = intervals(detections, ("down",), ("up",))
    down = {h: run.injector.downtime_intervals(h) for h in run.hosts}
    problems = []
    observed_fp = sum(gm.false_positives for gm in runtime.group_managers.values())
    counted_fp = sum(
        1 for t, host, kind in detections
        if kind == "down" and host in down and not inside(down[host], t)
    )
    if counted_fp != observed_fp:
        problems.append(
            f"I4: false-positive reconciliation failed — {counted_fp} detections "
            f"of healthy hosts vs {observed_fp} recorded false positives"
        )
    if config.detector == "phi":
        # phi reaches phi_down once elapsed ≈ phi_down·ln10 mean
        # intervals; allow one period of phase lag plus slack
        periods = runtime.config.phi_down * math.log(10.0) + 3.0
    else:
        periods = config.suspicion_threshold + 2
    window = periods * config.echo_period_s
    for host in run.hosts:
        for down_at, up_at in down[host]:
            end = up_at if up_at is not None else now
            if end - down_at <= window or down_at + window > now:
                continue  # too short, or too close to campaign end
            # detected = believed down at some point of [down_at, down_at +
            # window]: a detection lands in it, or one from before still holds
            if not any(
                d <= down_at + window and (u is None or u >= down_at)
                for d, u in believed.get(host, ())
            ):
                problems.append(
                    f"I4: outage of {host!r} at {down_at:.3f} (lasting "
                    f"{end - down_at:.3f}s) was never detected within the "
                    f"{window:.0f}s window"
                )
    return problems


def resume_equivalence(run: CampaignRun) -> List[str]:
    """I5 — resume equivalence: every completed application's terminal
    output hashes equal the pure-evaluation oracle's
    (:attr:`CampaignRun.oracle`) — in particular one checkpoint-
    restarted after its Site Manager crashed."""
    problems = []
    for name, (actual, expected) in run.oracle.items():
        if actual != expected:
            restarted = run.outcomes[name].get("restarted", False)
            problems.append(
                f"I5: application {name!r} "
                f"({'restarted' if restarted else 'uninterrupted'}) produced "
                f"output hashes {actual} != expected {expected}"
            )
    return problems


def no_orphaned_group(run: CampaignRun) -> List[str]:
    """I6 — no orphaned group: at campaign end every Site Manager is
    re-registered, every Group Manager is live (original or deputy),
    every host on a repository's roster is owned by exactly one live
    Group Manager, and a departed (tombstoned) host by none."""
    runtime = run.runtime
    problems = [
        f"I6: site manager {name!r} still crashed at campaign end"
        for name in sorted(runtime.site_managers)
        if not runtime.site_managers[name].alive
    ]
    owners: Dict[str, int] = {}
    for name in sorted(runtime.group_managers):
        gm = runtime.group_managers[name]
        if gm.alive:
            for host in gm.host_names:
                owners[host] = owners.get(host, 0) + 1
        else:
            problems.append(
                f"I6: group {name!r} has no live manager at campaign end"
            )
    members = {
        host for repo in runtime.repositories.values()
        for host in repo.resources.host_names()
    }
    for host in sorted(members | set(owners)):
        expected = 1 if host in members else 0
        if owners.get(host, 0) != expected:
            problems.append(
                f"I6: {'host' if expected else 'departed host'} {host!r} is "
                f"owned by {owners.get(host, 0)} live group managers "
                f"(expected exactly {expected})"
            )
    return problems


def speculation_safety(run: CampaignRun) -> List[str]:
    """I7 — speculation safety: a completed application that resolved
    at least one speculative race with a backup win still reproduces
    the oracle's terminal output hashes — which copy won must be
    unobservable in the outputs."""
    problems = []
    for coordinator in run.coordinators:
        name = coordinator.afg.name
        wins = sum(
            1 for e in coordinator.speculation_log if e["outcome"] == "backup_win"
        )
        if not wins or name not in run.oracle:
            continue
        actual, expected = run.oracle[name]
        if actual != expected:
            problems.append(
                f"I7: application {name!r} completed with {wins} speculative "
                f"backup win(s) but produced output hashes {actual} != "
                f"expected {expected}"
            )
    return problems


def bounded_waste(run: CampaignRun) -> List[str]:
    """I8 — bounded waste: at most one backup is launched per task
    attempt, every race a completed application launched is resolved
    (no leaked backup), and no backup is launched after its race was
    already decided."""
    problems = []
    for coordinator in run.coordinators:
        app_completed = coordinator.afg.name in run.completed_runs
        seen: Dict[Tuple[str, str, int], int] = {}
        for entry in coordinator.speculation_log:
            app, task = entry["application"], entry["task"]
            key = (app, task, entry["attempt"])
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                problems.append(
                    f"I8: task {task!r} of {app!r} (attempt {entry['attempt']}) "
                    f"launched {seen[key]} backups for one race"
                )
            resolved_at = entry["resolved_at"]
            if resolved_at is not None and resolved_at < entry["launched_at"]:
                problems.append(
                    f"I8: backup for task {task!r} of {app!r} launched at "
                    f"{entry['launched_at']:.3f}, after its race was "
                    f"decided at {resolved_at:.3f}"
                )
            if app_completed and (entry["outcome"] is None or resolved_at is None):
                problems.append(
                    f"I8: application {app!r} completed but the backup for "
                    f"task {task!r} was never resolved (leaked speculative copy)"
                )
    return problems


def span_integrity_holds(run: CampaignRun) -> List[str]:
    """I9 — span integrity (``causal_spans``): every opened causal span
    closes exactly once, or is explicitly orphan-marked when its
    application dies or the campaign ends with work in flight — never a
    silently leaked, double-closed or never-opened span."""
    if not run.config.causal_spans:
        return []
    return [f"I9: {problem}" for problem in span_integrity(run.events)]


def bounded_admission(run: CampaignRun) -> List[str]:
    """I10 — bounded admission (``storm_apps > 0``): the admission
    queue's depth never exceeds its configured bound, and every storm
    submission reaches a terminal outcome — completed, failed, rejected
    or expired.  Nothing queues forever."""
    if run.storm_queue is None:
        return []
    problems = []
    queue = run.storm_queue
    peak, bound = queue.peak_queued, queue.policy.max_queued
    if peak > bound:
        problems.append(
            f"I10: admission queue depth peaked at {peak}, exceeding the "
            f"bound {bound}"
        )
    for name in run.storm_names:
        status = run.outcomes.get(name, {}).get("status")
        if status not in ("completed", "failed", "rejected", "expired"):
            problems.append(
                f"I10: storm application {name!r} ended in {status!r}, not a "
                "terminal admission outcome"
            )
    return problems


def breaker_silence(run: CampaignRun) -> List[str]:
    """I11 — breaker silence (``breakers``): while a circuit is open no
    message is sent on that link — every send either precedes the trip
    or is the half-open probe at window end."""
    breakers = run.runtime.breakers
    return [f"I11: {p}" for p in breakers.open_violations(run.runtime.sim.now)]


def no_dirty_consumption(run: CampaignRun) -> List[str]:
    """I12 — no dirty consumption (``data_integrity``): every
    consumption in the integrity ledger is clean — no task ever
    received bytes whose content hash mismatches the producer's,
    because a mismatch is repaired (or fails typed) first."""
    return [
        f"I12: application {c['application']!r} consumed bytes on "
        f"{c['edge']!r} that mismatch the producer's recorded content hash"
        for c in run.runtime.integrity.consumption_log if not c["clean"]
    ]


def repair_or_typed_death(run: CampaignRun) -> List[str]:
    """I13 — repair or typed death (``data_integrity``): every
    corruption/loss incident ends ``refetched`` or ``regenerated``, or
    is ``poisoned`` with its application dead — a completed application
    never leaves an incident open nor completes past a poisoned
    artifact."""
    problems = []
    for incident in run.runtime.integrity.incidents:
        resolution, app = incident["resolution"], incident["application"]
        if (resolution in ("refetched", "regenerated")
                or run.outcomes.get(app, {}).get("status") != "completed"):
            continue
        if resolution == "poisoned":
            problems.append(
                f"I13: application {app!r} completed despite the "
                f"poison-quarantined {incident['target']!r}"
            )
        else:
            problems.append(
                f"I13: application {app!r} completed with an unresolved "
                f"{incident['kind']} incident on {incident['target']!r}"
            )
    return problems


def no_non_active_start(run: CampaignRun) -> List[str]:
    """I14 — no placement on a non-ACTIVE host (``n_churn_hosts > 0``):
    once a host's drain/departure is recorded no successful attempt
    starts on it until it rejoins — attempts already running at drain
    time may finish, which is the point of a graceful drain."""
    if not run.churn_targets:
        return []
    inactive = intervals(
        ((e["time"], e["host"], e["transition"])
         for e in run.runtime.membership.transitions),
        ("drain", "depart"), ("rejoin",),
    )
    problems = []
    for app, record, host, start in _starts(run):
        hit = inside(inactive.get(host, ()), start)
        if hit and hit[0] < start:
            problems.append(
                f"I14: task {record.task_id!r} of {app!r} started at "
                f"{start:.3f} on {host!r}, non-ACTIVE since {hit[0]:.3f}"
            )
    return problems


def drain_loses_no_work(run: CampaignRun) -> List[str]:
    """I15 — drain loses no work (``n_churn_hosts > 0``): every task
    evicted or invalidated by a membership transition completes on
    another host, or its application dies with a typed error — nothing
    is silently dropped."""
    if not run.churn_targets:
        return []
    problems = []
    for app, record in churn_evictions(run):
        status = run.outcomes.get(app, {}).get("status")
        if status == "completed" and record.measured_time <= 0:
            problems.append(
                f"I15: task {record.task_id!r} of {app!r} was evicted by a "
                "membership transition and never completed, yet the "
                "application 'completed'"
            )
        if status == "crashed":
            problems.append(
                f"I15: application {app!r} died untyped after task "
                f"{record.task_id!r} was evicted by a membership transition"
            )
    return problems


def rejoin_convergence(run: CampaignRun) -> List[str]:
    """I16 — rejoin convergence (``n_churn_hosts > 0``): a host whose
    last transition is a rejoin ends the campaign ACTIVE and
    re-scorable — in its repository's runnable table, so host selection
    bids it again."""
    if not run.churn_targets:
        return []
    runtime = run.runtime
    last = {e["host"]: e for e in runtime.membership.transitions}
    task_types = runtime.registry.names()
    problems = []
    for host in sorted(run.churn_targets):
        if host not in last or last[host]["transition"] != "rejoin":
            continue
        repo = runtime.repositories[last[host]["site"]]
        if not repo.resources.has_host(host):
            problems.append(
                f"I16: rejoined host {host!r} has no repository row at "
                "campaign end"
            )
        elif (state := repo.resources.membership_state(host)) != MembershipState.ACTIVE:
            problems.append(
                f"I16: rejoined host {host!r} ended the campaign in state "
                f"{state}, not ACTIVE"
            )
        elif repo.resources.get(host).up and not any(
            r.spec.name == host
            for t in task_types for r in repo.runnable_up_hosts(t)
        ):
            problems.append(
                f"I16: rejoined host {host!r} is ACTIVE and up but absent from "
                "every runnable table — host selection will never re-score it"
            )
    return problems


def no_phantom_partition(run: CampaignRun) -> List[str]:
    """I17 — no phantom partition: a campaign that armed no fault that
    can silence a site (no host, link, partition or manager fault, no
    message loss, no storm or overload refusal) sees no RPC time out,
    declares no site unreachable, and has every scheduling round hold
    the bids of the local site and all its k nearest."""
    config, runtime = run.config, run.runtime
    if (config.n_flaky_hosts or config.n_flaky_links or config.storm_apps
            or config.overload or config.message_loss_prob > 0
            or any(at is not None for at in (
                config.partition_at_s, config.gm_crash_at_s,
                config.sm_crash_at_s))):
        return []
    problems = []
    if runtime.stats.rpc_timeouts:
        problems.append(
            f"I17: {runtime.stats.rpc_timeouts} RPC(s) exhausted every "
            "attempt with no fault armed that can silence a site"
        )
    problems.extend(
        f"I17: {event.data['application']!r} declared site "
        f"{event.data['remote']!r} unreachable at {event.time:.3f} with "
        "no fault armed that can silence a site"
        for event in run.events if event.kind == EventKind.SITE_UNREACHABLE
    )
    expected = 1 + min(config.k, len(runtime.topology.site_names) - 1)
    for app, sites_bid in sorted(runtime.stats.sites_bid.items()):
        if sites_bid != expected:
            problems.append(
                f"I17: application {app!r} was scheduled on the bids of "
                f"{sites_bid} site(s), not of all {expected} within k"
            )
    return problems


#: the audit, in report order
INVARIANTS: Tuple[Callable[[CampaignRun], List[str]], ...] = (
    typed_completion,
    no_believed_down_start,
    reconciliation,
    resume_equivalence,
    no_orphaned_group,
    speculation_safety,
    bounded_waste,
    span_integrity_holds,
    bounded_admission,
    breaker_silence,
    no_dirty_consumption,
    repair_or_typed_death,
    no_non_active_start,
    drain_loses_no_work,
    rejoin_convergence,
    no_phantom_partition,
)

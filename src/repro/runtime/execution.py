"""Application execution: the simulated Data Manager protocol (paper §4.2).

The :class:`ExecutionCoordinator` drives one application through the
full runtime pipeline:

1. **Allocation distribution** — the local Site Manager sends each
   involved site its portion of the resource allocation table (WAN hop
   for remote sites), and each Site Manager multicasts to its Group
   Managers, which send execution requests to the Application
   Controllers (paper §4.1, Fig. 4 flows 4-5).
2. **Channel setup** — "The Data Managers on the assigned machines set
   up the application execution environment by starting the task
   executions and creating point-to-point communication channels for
   inter-task data transfer": one channel per AFG edge, with a setup
   message and an acknowledgement, each charged the latency of the link
   the channel crosses.
3. **Startup** — "When all the required acknowledgments are received an
   execution startup signal is sent to start the application
   execution."
4. **Execution** — per-task processes wait for their inputs (dataflow
   edges and staged files), run their slices on the assigned host(s),
   and push outputs down their channels as real, contention-aware
   network transfers.
5. **Fault handling** — a slice killed by a host failure, or terminated
   by the Application Controller's load threshold, triggers a
   rescheduling request; the coordinator obtains a replacement
   placement from the Site Managers, re-stages the task's inputs to the
   new host, and re-executes.  (Paper §4.1: "the Application Controller
   terminates the task execution on the machine and sends a task
   rescheduling request".)
6. **Refinement** — after completion the Site Managers fold measured
   execution times back into their task-performance databases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.afg.graph import ApplicationFlowGraph, Edge
from repro.afg.serialize import afg_to_dict
from repro.afg.task import TaskNode
from repro.errors import (
    CorruptPayloadError,
    DataIntegrityError,
    MissingArtifactError,
    PoisonedArtifactError,
)
from repro.net.rpc import ManagerUnavailable, RpcTimeout
from repro.obs.spans import NULL_SPAN, SpanKind
from repro.repository.resources import MembershipState
from repro.runtime.checkpoint import (
    ApplicationCheckpoint,
    CheckpointJournal,
    decode_value,
    encode_value,
    value_hash,
)
from repro.runtime.stats import RuntimeStats
from repro.scheduler.allocation import AllocationTable, TaskAssignment
from repro.sim.host import HostDownError, Interrupted
from repro.sim.kernel import AllOf, Signal, Simulator, Timeout
from repro.sim.network import LinkDownError
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.vdce_runtime import VDCERuntime

__all__ = ["ApplicationResult", "ExecutionCoordinator", "ExecutionError", "TaskRecord"]

#: small fixed cost of emitting the startup broadcast
_STARTUP_BROADCAST_S = 0.001
#: approximate wire size of one task's allocation-table row, MB
_ALLOC_BYTES_PER_TASK_MB = 0.0002
#: approximate wire size of an allocation acknowledgement, MB
_ALLOC_ACK_BYTES_MB = 0.00005
#: quantile of the host's measured/predicted ratios folded into the
#: speculation estimate (values < 1 are clamped to 1 — never speculate
#: *earlier* than the raw prediction says)
_RATIO_QUANTILE = 0.75
#: health penalty added when a speculative backup is launched against
#: the host
_STRAGGLE_PENALTY = 1.0


class ExecutionError(RuntimeError):
    """The application cannot make progress (no replacement host, ...)."""


@dataclass
class TaskRecord:
    """Per-task execution telemetry."""

    task_id: str
    task_type: str
    site: str
    hosts: Tuple[str, ...]
    predicted_time: float
    started_at: float = 0.0
    finished_at: float = 0.0
    measured_time: float = 0.0
    attempts: int = 0
    reschedule_reasons: List[str] = field(default_factory=list)
    #: payload transfers re-sent after a link outage killed them
    transfer_retries: int = 0
    #: inter-task channels re-established after dying mid-flight
    channel_reestablishes: int = 0
    #: copies billed to this task re-sent after a hash mismatch
    repair_refetches: int = 0
    #: lineage re-executions of this task to restore a lost/corrupt output
    repair_regenerations: int = 0

    @property
    def was_rescheduled(self) -> bool:
        return bool(self.reschedule_reasons)


@dataclass
class ApplicationResult:
    """What one application run produced and how long each stage took."""

    application: str
    scheduler: str
    submitted_at: float
    startup_at: float
    finished_at: float
    records: Dict[str, TaskRecord]
    outputs: Dict[str, List[Any]]
    data_transfers: int
    data_transferred_mb: float
    reschedules: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (omits output payloads, which may be arrays).

        This is what the web editor's status/visualisation endpoints
        return and what experiment scripts archive.
        """
        return {
            "application": self.application,
            "scheduler": self.scheduler,
            "submitted_at": self.submitted_at,
            "startup_at": self.startup_at,
            "finished_at": self.finished_at,
            "makespan_s": self.makespan,
            "setup_s": self.setup_time,
            "reschedules": self.reschedules,
            "data_transfers": self.data_transfers,
            "data_transferred_mb": self.data_transferred_mb,
            "transfer_retries": self.transfer_retries,
            "channel_reestablishes": self.channel_reestablishes,
            "repair_refetches": self.repair_refetches,
            "repair_regenerations": self.repair_regenerations,
            "tasks": {
                task_id: {
                    "task_type": r.task_type,
                    "site": r.site,
                    "hosts": list(r.hosts),
                    "predicted_s": r.predicted_time,
                    "measured_s": r.measured_time,
                    "started_at": r.started_at,
                    "finished_at": r.finished_at,
                    "attempts": r.attempts,
                    "reschedule_reasons": list(r.reschedule_reasons),
                    "transfer_retries": r.transfer_retries,
                    "channel_reestablishes": r.channel_reestablishes,
                    "repair_refetches": r.repair_refetches,
                    "repair_regenerations": r.repair_regenerations,
                }
                for task_id, r in self.records.items()
            },
        }

    @property
    def transfer_retries(self) -> int:
        """Payload transfers re-sent after link outages, across all tasks."""
        return sum(r.transfer_retries for r in self.records.values())

    @property
    def channel_reestablishes(self) -> int:
        """Channels re-established mid-execution, across all tasks."""
        return sum(r.channel_reestablishes for r in self.records.values())

    @property
    def repair_refetches(self) -> int:
        """Copies re-sent after a hash mismatch, across all tasks."""
        return sum(r.repair_refetches for r in self.records.values())

    @property
    def repair_regenerations(self) -> int:
        """Lineage re-executions that restored an output, across all tasks."""
        return sum(r.repair_regenerations for r in self.records.values())

    @property
    def setup_time(self) -> float:
        """Allocation distribution + channel setup (submit -> startup)."""
        return self.startup_at - self.submitted_at

    @property
    def makespan(self) -> float:
        """Execution time proper (startup signal -> last task finish)."""
        return self.finished_at - self.startup_at

    @property
    def total_time(self) -> float:
        return self.finished_at - self.submitted_at

    def hosts_used(self) -> List[str]:
        return sorted({h for r in self.records.values() for h in r.hosts})

    def comm_to_compute_ratio(self) -> float:
        compute = sum(r.measured_time for r in self.records.values())
        if compute <= 0:
            return 0.0
        comm = self.makespan - max(
            (r.measured_time for r in self.records.values()), default=0.0
        )
        return max(0.0, comm) / compute


def _edge_key(edge: Edge) -> Tuple[str, str, int, int]:
    return (edge.src, edge.dst, edge.src_port, edge.dst_port)


@dataclass
class _Race:
    """One speculation race: what the racing attempt, the copy watchers
    and the straggler timer share (DESIGN §11)."""

    primary: Any
    #: fires ``(which, execution)`` for the first copy to complete, or
    #: fails with the last live copy's error
    outcome: Signal
    span_work: float
    memory_mb: int
    #: the task span the backup's ``speculate_backup`` span parents under
    task_span: Any
    copies: List[Any]
    #: set by the timer once (and only if) a backup copy is launched
    bid: Any = None
    entry: Optional[Dict[str, Any]] = None
    span: Any = NULL_SPAN

    @property
    def decided(self) -> bool:
        """Nothing left to speculate on: a copy won or the primary ended."""
        return self.outcome.triggered or self.primary.done.triggered


class ExecutionCoordinator:
    """Runs one application to completion on a :class:`VDCERuntime`."""

    def __init__(
        self,
        runtime: "VDCERuntime",
        afg: ApplicationFlowGraph,
        table: AllocationTable,
        execute_payloads: bool = True,
        submit_site: Optional[str] = None,
        journal: Optional[CheckpointJournal] = None,
        checkpoint: Optional[ApplicationCheckpoint] = None,
    ):
        table.validate_against(afg)
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.stats: RuntimeStats = runtime.stats
        self.tracer = runtime.tracer
        self.afg = afg
        #: trace/span source of everything this coordinator emits, and
        #: the name of its process
        self._src = f"app:{afg.name}"
        self.table = table
        self.execute_payloads = execute_payloads
        self.submit_site = submit_site or runtime.default_site
        #: the submitting site's server host: file inputs stage from it
        self._submit_server = (
            runtime.topology.site(self.submit_site).server_host.name
        )
        #: live assignment (diverges from the table after rescheduling)
        self.assignment: Dict[str, TaskAssignment] = dict(table.assignments)
        #: membership epoch each assigned host had when its placement was
        #: bound (DESIGN §17): a host that departed and rejoined between
        #: binding and execution carries a higher epoch, so its old
        #: placement — and any late bid stamped with the old epoch — is
        #: recognisably stale and must be re-placed, not executed.
        self._bound_epochs: Dict[str, int] = {}
        #: site -> (repository versions + belief mark, hosts found fit)
        self._fit: Dict[str, Tuple[tuple, set]] = {}
        for assignment in self.assignment.values():
            self._note_assignment_epochs(assignment)
        #: edge signals carrying produced values to consumers
        self._edge_ready: Dict[Tuple[str, str, int, int], Signal] = {}
        self.records: Dict[str, TaskRecord] = {}
        self.outputs: Dict[str, List[Any]] = {}
        self._excluded_hosts: Dict[str, set] = {}
        self._transfers = 0
        self._transferred_mb = 0.0
        self._reschedules = 0
        self.control = runtime.control
        self.data_policy = runtime.config.data_policy
        #: the integrity manager, or NULL_INTEGRITY when it is off
        self.integrity = runtime.integrity
        #: causal span recorder (runtime-shared; null object when off)
        self.spans = runtime.spans
        #: ``_open(kind, parent, **attrs)`` / ``_close(span, **attrs)``
        self._open, self._close = self.spans.bind(afg.name, self._src)
        #: this application's root span context (NULL_SPAN when spans
        #: are off, and then so is every span below it)
        self._root_span = NULL_SPAN
        #: sites that never acknowledged their allocation portion
        self._unreachable_sites: set = set()
        #: task -> reasons for pre-execution moves off unreachable sites
        self._pre_execution_moves: Dict[str, List[str]] = {}
        #: speculative re-execution policy (None => disabled)
        self.speculation = runtime.config.speculation
        #: audit log of every backup launch, for the chaos I8 invariant
        self.speculation_log: List[Dict[str, Any]] = []
        #: tasks whose race was won by the backup copy (hash cross-check)
        self._speculative_wins: set = set()
        #: durable checkpoint journal (None => checkpointing disabled)
        self.journal = journal
        #: task id -> ``task_complete`` record restored from a checkpoint
        self._restored: Dict[str, Dict[str, Any]] = {}
        #: True when continuing from a checkpoint (even a pre-frontier one)
        self._resuming = checkpoint is not None
        if checkpoint is not None:
            if checkpoint.application != afg.name:
                raise ValueError(
                    f"checkpoint is for {checkpoint.application!r}, "
                    f"not {afg.name!r}"
                )
            self._restored = dict(checkpoint.completed)

    # -- public API --------------------------------------------------------

    def start(self):
        """Spawn the coordinator process; its value is ApplicationResult."""
        return self.sim.process(self._run(), name=self._src)

    # -- protocol ------------------------------------------------------------

    def _run(self):
        submitted_at = self.sim.now
        root = self._root_span = self.spans.root_of(
            self.afg.name, source=self._src
        )

        # Phase 0: journal the schedule (fresh run) or the resume.
        self._journal_start()

        # Phase 1: distribute allocation-table portions.
        alloc_span = self._open(SpanKind.ALLOCATION, root)
        yield from self._distribute_allocation(alloc_span)
        self._close(alloc_span)

        # Phase 2: channel setup + acks for every AFG edge.
        chan_span = self._open(
            SpanKind.CHANNEL_SETUP, root, edges=len(self.afg.edges)
        )
        yield from self._setup_channels(chan_span)
        self._close(chan_span)

        # Phase 3: the execution startup signal.
        self.stats.startup_signals += 1
        yield Timeout(_STARTUP_BROADCAST_S)
        startup_at = self.sim.now
        self.tracer.emit(EventKind.STARTUP_SIGNAL, source=self._src)

        # Phase 4: per-task processes; wait for all of them.  AllOf
        # subscribes (and so observes) every process up front: when one
        # task fails terminally, the first error propagates here as a
        # typed ExecutionError while sibling failures stay observed.
        try:
            procs = [
                self.sim.process(
                    self._task_process(task_id),
                    name=f"task:{self.afg.name}:{task_id}",
                )
                for task_id in self.afg.topological_order()
                if task_id not in self._restored
            ]
            if procs:
                yield AllOf(procs)
        finally:
            for controller in self.runtime.app_controllers.values():
                controller.release(self.afg.name)
        finished_at = self.sim.now

        # Phase 6: post-execution task-performance refinement.
        collect_span = self._open(SpanKind.COLLECT, root)
        self._refine_predictions()
        self._close(collect_span)
        self.spans.close_root(
            self.afg.name, source=self._src,
            makespan_s=finished_at - startup_at,
        )

        return ApplicationResult(
            application=self.afg.name,
            scheduler=self.table.scheduler,
            submitted_at=submitted_at,
            startup_at=startup_at,
            finished_at=finished_at,
            records=dict(self.records),
            outputs=dict(self.outputs),
            data_transfers=self._transfers,
            data_transferred_mb=self._transferred_mb,
            reschedules=self._reschedules,
        )

    def _journal_start(self) -> None:
        """Phase 0: journal the schedule (fresh run) or the resume."""
        if self._resuming:
            self._restore_completed()
            self._reconcile_membership()
            self._journal_append(
                "resume",
                submit_site=self.submit_site,
                completed=sorted(self._restored),
            )
            self.stats.resumes += 1
            self.tracer.emit(
                EventKind.RESUME, source=self._src,
                submit_site=self.submit_site,
                completed=len(self._restored),
            )
            self._close(self._open(
                SpanKind.RESUME, self._root_span, completed=len(self._restored)
            ))
        elif self._journaling:
            self._journal_append(
                "schedule",
                scheduler=self.table.scheduler,
                submit_site=self.submit_site,
                afg=afg_to_dict(self.afg),
                table=self.table.to_dict(),
            )

    def _refine_predictions(self) -> None:
        """Phase 6: fold measured times into the task-performance databases.

        Records restored from a checkpoint were refined before the
        crash; a crashed Site Manager cannot take updates.
        """
        for task_id, record in self.records.items():
            if task_id in self._restored:
                continue
            manager = self.runtime.site_managers[record.site]
            if record.predicted_time > 0 and manager.alive:
                manager.record_completed_execution(
                    record.task_type,
                    record.hosts[0],
                    expected_s=record.predicted_time,
                    measured_s=record.measured_time,
                )

    def _distribute_allocation(self, span):
        """Phase 1: local SM -> remote SMs -> Group Managers -> Controllers.

        Remote portions ride the retrying control plane.  A site that
        never acknowledges (down link, partition, repeated loss) is
        declared unreachable and its tasks are moved to reachable sites,
        whose portions are (re)delivered in the next round — so the
        application starts on whatever part of the federation can
        actually be talked to, or fails with a typed error.
        """
        # only sites with frontier work need their portion (on a fresh
        # run the frontier is every task)
        pending = sorted({
            a.site
            for task_id, a in self.assignment.items()
            if task_id not in self._restored
        })
        for _round in range(len(self.runtime.site_managers) + 1):
            snapshot = self._live_table()
            local_signal = None
            procs = []
            for site_name in pending:
                if site_name == self.submit_site:
                    # ambient context so the Site Manager's fanout span
                    # parents under the allocation span (the remote path
                    # gets the same via the RPC attempt context)
                    manager = self.runtime.site_managers[site_name]
                    local_signal = yield from self.spans.within(
                        span,
                        lambda: manager.distribute_allocation(snapshot, self.afg),
                    )
                else:
                    procs.append(
                        self.sim.process(
                            self._deliver_allocation(site_name, snapshot, span),
                            name=f"alloc:{self.afg.name}:{site_name}",
                        )
                    )
            if local_signal is not None:
                yield local_signal
            failed = []
            if procs:
                results = yield AllOf(procs)
                failed = sorted(site for site, ok in results if not ok)
            if not failed:
                return
            self._unreachable_sites.update(failed)
            pending = self._reassign_off_sites(failed)
        raise ExecutionError(
            f"allocation distribution for {self.afg.name!r} could not settle "
            f"(unreachable sites: {sorted(self._unreachable_sites)})"
        )

    # -- checkpointing ------------------------------------------------------

    @property
    def _journaling(self) -> bool:
        """Whether records are being kept; callers whose record is costly
        to build (serialised AFG, hashed + pickled outputs) test it first."""
        return self.journal is not None

    def _journal_append(self, kind: str, **fields: Any) -> None:
        """One checkpoint record: journal append, stats and its event."""
        if not self._journaling:
            return
        n = self.journal.append(
            kind, time=self.sim.now, application=self.afg.name, **fields
        )
        self.stats.checkpoint_records += 1
        self.stats.checkpoint_bytes += n
        self.tracer.emit(
            EventKind.CHECKPOINT, source=self._src, record=kind, bytes=n,
        )

    def _restore_completed(self) -> None:
        """Rebuild records (and terminal outputs) for checkpointed tasks."""
        for task_id, rec in self._restored.items():
            node = self.afg.task(task_id)
            self.records[task_id] = TaskRecord(
                task_id=task_id,
                task_type=node.task_type,
                site=rec["site"],
                hosts=tuple(rec["hosts"]),
                predicted_time=rec.get("predicted_time", 0.0),
                started_at=rec.get("started_at", 0.0),
                finished_at=rec.get("finished_at", 0.0),
                measured_time=rec.get("measured_time", 0.0),
                attempts=rec.get("attempts", 0),
            )
            if not self.afg.out_edges(task_id):
                self.outputs[task_id] = [
                    decode_value(o["value"]) for o in rec["outputs"]
                ]

    def _reconcile_membership(self) -> None:
        """Resume-time sweep: flag frontier tasks bound to departed hosts.

        A journal can outlive its hosts — the federation that resumes an
        application is not necessarily the one that checkpointed it
        (satellite: issue 10).  For every incomplete task whose recorded
        assignment names a host that since departed (or is otherwise
        non-ACTIVE), append a typed ``membership_warning`` journal
        record instead of crashing; the per-attempt membership check
        then reroutes the task through the normal rescheduling path.
        Old journal readers skip the unknown record kind.
        """
        for task_id in sorted(self.assignment):
            if task_id in self._restored:
                continue
            assignment = self.assignment[task_id]
            stale = self._stale_membership_hosts(assignment)
            if not stale:
                continue
            self._journal_append(
                "membership_warning", task=task_id,
                hosts=list(assignment.hosts), stale=stale,
            )
            self.tracer.emit(
                EventKind.RESUME_MEMBERSHIP_WARNING, source=self._src,
                task=task_id, stale=stale,
            )

    def _live_table(self) -> AllocationTable:
        """The current assignment as a distributable table snapshot."""
        snapshot = AllocationTable(self.afg.name, scheduler=self.table.scheduler)
        for assignment in self.assignment.values():
            snapshot.assign(assignment)
        return snapshot

    def _deliver_allocation(self, site_name: str, snapshot, span):
        """Send one remote site its table portion; value ``(site, ok)``."""
        manager = self.runtime.site_managers[site_name]
        remote_server = self.runtime.topology.site(site_name).server_host.name
        n_tasks = max(1, len(snapshot.tasks_on_site(site_name)))

        def on_send(attempt: int) -> None:
            # one WAN message carrying the table portion, per attempt
            self.stats.allocation_messages += 1

        def handle():
            return (yield manager.distribute_allocation(snapshot, self.afg))

        try:
            yield from self.control.request(
                self._submit_server, remote_server, handle,
                payload_mb=_ALLOC_BYTES_PER_TASK_MB * n_tasks,
                reply_mb=_ALLOC_ACK_BYTES_MB,
                label=f"alloc:{self.afg.name}:{site_name}",
                on_send=on_send, span=span,
            )
        except RpcTimeout:
            self.tracer.emit(
                EventKind.SITE_UNREACHABLE, source=self._src,
                remote=site_name, phase="allocation",
            )
            return (site_name, False)
        return (site_name, True)

    def _reassign_off_sites(self, failed: List[str]) -> List[str]:
        """Move tasks off unreachable sites; returns sites needing
        (re)delivery of their updated portions."""
        dead_hosts: set = set()
        for site_name in self._unreachable_sites:
            dead_hosts.update(self.runtime.topology.site(site_name).hosts)
        moved: set = set()
        for task_id in sorted(
            t for t, a in self.assignment.items() if a.site in failed
        ):
            reason = f"site {self.assignment[task_id].site!r} unreachable"
            excluded = self._excluded_hosts.setdefault(task_id, set())
            excluded.update(dead_hosts)
            excluded.update(self.assignment[task_id].hosts)
            bid = self._replacement(task_id, excluded)
            if bid is None:
                raise ExecutionError(
                    f"no reachable site can run task {task_id!r} ({reason})"
                )
            # a pre-execution move off an unreachable site is a
            # failure-driven restart like any other (satellite of the
            # total_control_messages composition fix)
            self._count_reschedule(task_id, reason, failure=True)
            self._pre_execution_moves.setdefault(task_id, []).append(reason)
            moved.add(self._rebind(task_id, bid, reason=reason).site)
        return sorted(moved)

    def _setup_channels(self, span):
        """Phase 2: one point-to-point channel per edge, setup + ack.

        On a resumed run, an edge whose producer already completed
        re-stages the journalled output from the submitting site's
        server instead — the consumer gets the recorded value without
        the producer re-running.  A re-stage that exhausts the data
        policy fails its setup process, so the resume fails typed
        instead of hanging.
        """
        procs = []
        for edge in self.afg.edges:
            if edge.src in self._restored:
                gen = self._restage_edge(edge)
            else:
                gen = self._setup_edge(edge, span)
            procs.append(
                self.sim.process(gen, name=f"chan:{edge.src}->{edge.dst}")
            )
        if procs:
            yield AllOf(procs)

    def _setup_edge(self, edge: Edge, span):
        yield from self._establish_channel(edge, span)
        self._edge_ready[_edge_key(edge)] = self.sim.signal(
            f"edge:{edge.src}->{edge.dst}"
        )

    def _restage_edge(self, edge: Edge):
        """Resume: satisfy one edge from its producer's journalled output.

        The copy moves from the submitting server by :meth:`_copy`, with
        no lineage (the producer ran in a prior incarnation); one that
        fails typed fails the edge.
        """
        signal = self.sim.signal(f"edge:{edge.src}->{edge.dst}")
        self._edge_ready[_edge_key(edge)] = signal
        value = decode_value(
            self._restored[edge.src]["outputs"][edge.src_port]["value"]
        )
        if edge.dst in self._restored:
            # both endpoints already ran; satisfy the edge for free
            signal.succeed(value)
            return
        self.integrity.record_artifact(
            self.afg.name, edge.src, edge.src_port, value, self._submit_server
        )
        try:
            yield from self._copy(
                edge, self._submit_server,
                self.assignment[edge.dst].primary_host, self.records[edge.src],
                f"restage:{edge.src}->{edge.dst}", "restage",
            )
        except DataIntegrityError as exc:
            signal.fail(exc)
            return
        signal.succeed(value)

    def _establish_channel(self, edge: Edge, span=NULL_SPAN):
        """Channel setup + ack for one edge, with control-plane retries.

        The communication proxy's setup message and the acknowledgement
        each ride one link latency (the ``latency`` transport); under
        loss or a down link the exchange retries with backoff, and an
        exhausted policy is a typed execution failure.
        """
        src_host = self.assignment[edge.src].primary_host
        dst_host = self.assignment[edge.dst].primary_host

        def on_send(attempt: int) -> None:
            self.stats.channel_setups += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.CHANNEL_SETUP, source=self._src,
                    edge=[edge.src, edge.dst], src_host=src_host,
                    dst_host=dst_host,
                )

        def on_reply(attempt: int) -> None:
            self.stats.channel_acks += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.CHANNEL_ACK, source=self._src,
                    edge=[edge.src, edge.dst],
                )

        try:
            yield from self.control.request(
                src_host, dst_host, lambda: None, transport="latency",
                label=f"chan:{self.afg.name}:{edge.src}->{edge.dst}",
                on_send=on_send, on_reply=on_reply, span=span,
            )
        except RpcTimeout as exc:
            raise ExecutionError(
                f"channel setup {edge.src}->{edge.dst} failed: {exc}"
            ) from exc

    def _reestablish_channel(self, edge: Edge, record: TaskRecord):
        """Re-run channel setup after a mid-flight link failure."""
        record.channel_reestablishes += 1
        self.stats.channel_reestablishes += 1
        self.tracer.emit(
            EventKind.CHANNEL_REESTABLISH, source=self._src,
            edge=[edge.src, edge.dst],
        )
        yield from self._establish_channel(edge)

    # -- the data plane: transfers, staging, outages, repair ----------------

    def _link_backoff(self, record: TaskRecord, label: str, attempt: int,
                      exc: LinkDownError, what: str):
        """The pause after a link outage killed attempt ``attempt``.

        An exhausted data policy raises a typed :class:`ExecutionError`
        naming ``what`` failed; otherwise the retry is billed, traced
        and waited out.  The ``retry:<app>:<label>`` stream is taken
        here, at the draw (DESIGN §5 decision 8).
        """
        policy = self.data_policy
        if attempt >= policy.max_attempts:
            raise ExecutionError(
                f"{what} failed after {attempt} attempts: {exc}"
            ) from exc
        record.transfer_retries += 1
        self.stats.transfer_retries += 1
        self.tracer.emit(
            EventKind.TRANSFER_RETRY, source=self._src,
            label=label, attempt=attempt, reason=str(exc),
        )
        rng = self.sim.rng(f"retry:{self.afg.name}:{label}")
        yield Timeout(policy.backoff(attempt, float(rng.uniform())))

    def _transfer_with_retry(self, src_host: str, dst_host: str, size_mb: float,
                             label: str, record: TaskRecord, reason: str,
                             edge: Optional[Edge] = None):
        """A payload transfer that survives link outages.

        Each attempt is a real contention-aware transfer; one killed by
        :class:`LinkDownError` is retried after an exponential backoff,
        re-establishing the edge's channel first when one exists.  An
        exhausted data policy raises a typed :class:`ExecutionError`.
        Returns the completed :class:`~repro.sim.network.Transfer`, whose
        ``corruption`` marker the integrity check reads.
        """
        network = self.runtime.topology.network
        for attempt in range(1, self.data_policy.max_attempts + 1):
            transfer = network.transfer(src_host, dst_host, size_mb, label=label)
            self._transfers += 1
            self._transferred_mb += size_mb
            self.stats.data_transfers += 1
            self.stats.data_transferred_mb += size_mb
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.DATA_TRANSFER, source=self._src,
                    src=src_host, dst=dst_host, size_mb=size_mb,
                    edge=[edge.src, edge.dst] if edge is not None else None,
                    reason=reason, attempt=attempt,
                )
            try:
                yield transfer.done
                return transfer
            except LinkDownError as exc:
                yield from self._link_backoff(
                    record, label, attempt, exc, f"transfer {label!r}"
                )
                if edge is not None:
                    try:
                        yield from self._reestablish_channel(edge, record)
                    except ExecutionError:
                        # link still down: keep backing off; only the
                        # transfer attempts themselves are the budget
                        pass

    def _stage_with_retry(self, spec, src_host: str, dst_host: str,
                          record: TaskRecord):
        """``io_service.stage`` hardened against link outages.

        A stage-in whose transfer arrived damaged
        (:class:`CorruptPayloadError` from the I/O service, which has
        already reported it) is refetched under the ladder; file inputs
        have no lineage to regenerate from, so an exhausted budget
        fails typed (I13's typed-termination arm).  Outages and
        refetches draw on the same ``max_attempts`` budget.
        """
        policy = self.data_policy
        label = f"stage:{spec.path}"
        what = f"staging {spec.path!r} onto {dst_host}"
        attempts = iter(range(1, policy.max_attempts + 1))

        def fetch():
            for attempt in attempts:
                try:
                    return (yield from self.runtime.io_service.stage(
                        spec, src_host, dst_host
                    ))
                except LinkDownError as exc:
                    yield from self._link_backoff(
                        record, label, attempt, exc, what
                    )
            raise ExecutionError(
                f"{what} exhausted {policy.max_attempts} attempts"
            )

        integrity = self.integrity
        try:
            return (yield from integrity.refetch_ladder(
                self.afg.name, label, fetch, record=record,
                kind="stage-corrupt",
            ))
        except CorruptPayloadError as exc:
            raise CorruptPayloadError(
                f"{what} still corrupt after "
                f"{integrity.policy.max_refetches} refetch(es): {exc}"
            ) from exc

    def _feed(self, node: TaskNode, host: str, record: TaskRecord,
              label: str, reason: str, span):
        """The steps that put ``node``'s inputs on ``host``: one generator
        per input for the caller to ``yield from`` — dataflow edges in
        port order (each the one dataflow copy, verified like a first
        delivery), then file inputs.  A caller that may lose interest
        between inputs (the speculation timer) checks between steps."""
        for edge in sorted(self.afg.in_edges(node.id), key=lambda e: e.dst_port):
            yield self._copy(
                edge, self.assignment[edge.src].primary_host, host, record,
                f"{label}:{edge.src}->{edge.dst}", reason, span=span,
            )
        for binding in node.properties.file_inputs():
            yield self._stage_with_retry(
                binding.file, self._submit_server, host, record
            )

    def _deliver_output(self, edge: Edge, value: Any, record: TaskRecord,
                        span):
        """Push one produced value down its channel, surviving outages.

        A delivery that exhausts the data policy fails the edge signal,
        so the consumer task (and with it the application) fails with
        the typed error instead of hanging forever.
        """
        key = _edge_key(edge)
        sent_at = self.sim.now
        src_host = self.assignment[edge.src].primary_host
        dst_host = self.assignment[edge.dst].primary_host
        out_span = self._open(
            SpanKind.STAGE_OUT, span, task=edge.src,
            edge=[edge.src, edge.dst], size_mb=edge.size_mb,
        )
        try:
            yield from self._copy(
                edge, src_host, dst_host, record, f"{edge.src}->{edge.dst}",
                "dataflow", channel=edge, span=out_span,
            )
        except (ExecutionError, DataIntegrityError) as exc:
            self._close(out_span, status="failed")
            self._edge_ready[key].fail(exc)
            return
        if self.sim.metrics.enabled:
            self.sim.metrics.histogram(
                "vdce_transfer_latency_seconds",
                "dataflow transfer time on the contended network",
            ).observe(self.sim.now - sent_at)
        self._close(out_span)
        self._edge_ready[key].succeed(value)

    def _copy(self, edge: Edge, src_host: str, dst_host: str,
              record: TaskRecord, label: str, reason: str,
              channel: Optional[Edge] = None, span=NULL_SPAN):
        """The one dataflow copy of ``edge``'s value (a first delivery, a
        resume re-stage, a reschedule or speculation feed), as the
        generator to ``yield from``: :meth:`_verified_copy` with integrity
        on, else the bare :meth:`_transfer_with_retry` — no wrapper frame
        (DESIGN §16.3).  ``channel`` is re-established on an outage."""
        move = partial(
            self._transfer_with_retry, src_host, dst_host, edge.size_mb,
            label, record, reason, channel,
        )
        return self.integrity.copy(
            move, self._verified_copy, edge, record, label, span
        )

    def _verified_copy(self, move, edge: Edge, record: TaskRecord,
                       label: str, parent_span):
        """One dataflow copy under the repair ladder (DESIGN §16.3):
        every ``move()`` is verified, refetched, then — when the producer
        ran in this incarnation (lineage) — regenerated; past the
        budgets the artifact is poisoned and the copy fails typed.  Only
        a verified copy is recorded as consumed, under ``label`` (I12);
        the episode, from its first detection, is one ``REPAIR`` span."""
        integrity = self.integrity
        app = self.afg.name
        lineage = edge.src not in self._restored
        expected = integrity.recorded_hash(app, edge.src, edge.src_port)
        repair_span = NULL_SPAN

        def fetch():
            nonlocal repair_span
            artifact = lineage and integrity.artifact(
                app, edge.src, edge.src_port
            )
            if artifact and artifact.poisoned:
                raise PoisonedArtifactError(
                    f"artifact {edge.src}[{edge.src_port}] of {app!r} is "
                    "quarantined; consumer fails typed"
                )
            try:
                if artifact and artifact.lost:
                    raise MissingArtifactError(
                        f"staged copy of {edge.src}[{edge.src_port}] vanished"
                    )
                arrived = yield from move()
                integrity.verify(arrived, app, label, label, expected)
            except (CorruptPayloadError, MissingArtifactError):
                if repair_span is NULL_SPAN:  # the episode's first detection
                    repair_span = self._open(
                        SpanKind.REPAIR, parent_span, edge=[edge.src, edge.dst]
                    )
                raise

        def regenerate(incident):
            return self._regenerate(edge.src, incident, 1, repair_span)

        try:
            yield from integrity.refetch_ladder(
                app, label, fetch, regenerate if lineage else None,
                record=record,
            )
        except DataIntegrityError as exc:
            self._close(repair_span, status="poisoned")
            if lineage:
                raise
            integrity.note_poison(
                app, edge.src, "restage refetch budget exhausted"
            )
            raise CorruptPayloadError(
                f"re-staged output {edge.src}[{edge.src_port}] still corrupt "
                f"after {integrity.policy.max_refetches} refetch(es)",
                expected_hash=expected,
            ) from exc
        integrity.record_consumption(
            app, label, clean=True, expected_hash=expected
        )
        self._close(repair_span, status="repaired")

    def _regenerate(self, task_id: str, incident: Dict[str, Any], depth: int,
                    span):
        """Re-execute ``task_id`` to restore its lost/corrupt outputs.

        Task implementations are deterministic pure functions of
        ``(inputs, scale)`` (the resume-equivalence oracle), so
        regeneration restores byte-identical artifacts; what it costs
        is the producer's measured compute time, charged here.  When
        the producer's own inputs are lost the regeneration recurses up
        the lineage, bounded by ``max_depth``; each task's artifact set
        carries a shared ``max_regenerations`` budget, after which it
        is poisoned and consumers fail typed.
        """
        integrity = self.integrity
        policy = integrity.policy
        app = self.afg.name
        if depth > policy.max_depth:
            integrity.note_poison(
                app, task_id, f"lineage depth {depth} exceeds bound"
            )
            raise PoisonedArtifactError(
                f"regenerating {task_id!r} exceeds lineage depth bound "
                f"{policy.max_depth}"
            )
        artifacts = integrity.task_artifacts(app, task_id)
        # no registered artifacts (restored producer): fall back to the
        # incident's own count so the loop stays bounded regardless
        spent = max(
            (a.regenerations for a in artifacts),
            default=incident["regenerations"],
        )
        if spent >= policy.max_regenerations:
            integrity.note_poison(
                app, task_id,
                f"regeneration budget {policy.max_regenerations} exhausted",
            )
            raise PoisonedArtifactError(
                f"artifact of {task_id!r} still unusable after "
                f"{spent} regeneration(s); quarantined"
            )
        # the producer's own inputs first (recursive lineage repair)
        for in_edge in sorted(self.afg.in_edges(task_id),
                              key=lambda e: (e.src, e.src_port)):
            upstream = integrity.artifact(app, in_edge.src, in_edge.src_port)
            if upstream is not None and upstream.lost:
                yield from self._regenerate(
                    in_edge.src, incident, depth + 1, span
                )
        producer = self.records.get(task_id)
        assignment = self.assignment[task_id]
        charged = (
            producer.measured_time
            if producer is not None and producer.measured_time > 0
            else assignment.predicted_time
        )
        incident["regenerations"] += 1
        if producer is not None:
            producer.repair_regenerations += 1
        for artifact in artifacts:
            artifact.regenerations += 1
        integrity.note_regeneration(app, task_id, depth, charged)
        regen_span = self._open(
            SpanKind.REPAIR, span, task=task_id, depth=depth
        )
        yield Timeout(charged)
        self._close(regen_span)
        # pure re-execution restored the staged copies on the host
        for artifact in artifacts:
            artifact.lost = False
            artifact.host = assignment.primary_host

    # -- per-task execution -----------------------------------------------------

    def _task_process(self, task_id: str):
        node = self.afg.task(task_id)
        assignment = self.assignment[task_id]
        record = TaskRecord(
            task_id=task_id,
            task_type=node.task_type,
            site=assignment.site,
            hosts=assignment.hosts,
            predicted_time=assignment.predicted_time,
            reschedule_reasons=list(self._pre_execution_moves.get(task_id, [])),
        )
        self.records[task_id] = record
        task_span = self._open(
            SpanKind.TASK, self._root_span, task=task_id,
            task_type=node.task_type, site=assignment.site,
            hosts=assignment.hosts,
        )

        # Gather dataflow inputs (in dst_port order for the implementation).
        in_edges = sorted(self.afg.in_edges(task_id), key=lambda e: e.dst_port)
        port_values: Dict[int, Any] = {}
        if in_edges:
            wait_span = self._open(
                SpanKind.INPUT_WAIT, task_span, task=task_id,
                edges=len(in_edges),
            )
            for edge in in_edges:
                value = yield self._edge_ready[_edge_key(edge)]
                port_values[edge.dst_port] = value
            self._close(wait_span)

        # Stage explicit file inputs from the submitting site's server.
        file_inputs = node.properties.file_inputs()
        if file_inputs:
            stage_span = self._open(
                SpanKind.STAGE_IN, task_span, task=task_id,
                files=len(file_inputs),
            )
            for binding in file_inputs:
                dst = self.assignment[task_id].primary_host
                value = yield from self._stage_with_retry(
                    binding.file, self._submit_server, dst, record
                )
                port_values[binding.port] = value
            self._close(stage_span)

        inputs = [port_values.get(p) for p in range(node.n_in_ports)]

        # Console service gate (suspend/restart).
        yield from self.runtime.console.wait_if_suspended(self.afg.name)

        # Execute, retrying through reschedules.
        record.started_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.TASK_START, source=self._src,
                task=task_id, task_type=node.task_type,
                site=record.site, hosts=record.hosts,
            )
        yield from self._execute_with_recovery(node, record, task_span)
        record.finished_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.TASK_FINISH, source=self._src,
                task=task_id, site=record.site, hosts=record.hosts,
                measured_time=record.measured_time, attempts=record.attempts,
            )
        self._publish_outputs(node, record, inputs, task_span)
        self._close(
            task_span, attempts=record.attempts,
            measured_s=record.measured_time,
        )

    def _publish_outputs(self, node: TaskNode, record: TaskRecord, inputs,
                         task_span) -> None:
        """Produce the task's real output values, register and journal
        them, and push them down the channels as (retrying) transfers."""
        task_id = node.id
        if self.execute_payloads:
            signature = self.runtime.registry.get(node.task_type)
            outputs = signature.run(inputs, node.properties.workload_scale)
            if task_id in self._speculative_wins:
                self._verify_speculative_outputs(node, inputs, outputs)
        else:
            outputs = [None] * node.n_out_ports
        location = self.assignment[task_id].primary_host
        for port, value in enumerate(outputs):
            self.integrity.record_artifact(
                self.afg.name, task_id, port, value, location
            )
        if self._journaling:
            self._journal_append(
                "task_complete",
                task=task_id,
                site=record.site,
                hosts=list(record.hosts),
                predicted_time=record.predicted_time,
                started_at=record.started_at,
                finished_at=record.finished_at,
                measured_time=record.measured_time,
                attempts=record.attempts,
                outputs=[
                    {
                        "port": port,
                        "hash": value_hash(value),
                        "value": encode_value(value),
                        "location": location,
                    }
                    for port, value in enumerate(outputs)
                ],
            )
        out_edges = self.afg.out_edges(task_id)
        if not out_edges:
            self.outputs[task_id] = outputs
        for edge in out_edges:
            value = outputs[edge.src_port] if outputs else None
            self.sim.process(
                self._deliver_output(edge, value, record, task_span),
                name=f"xfer:{edge.src}->{edge.dst}",
            )

    def _execute_with_recovery(self, node: TaskNode, record: TaskRecord, span):
        """Run the task's slice(s); on failure/threshold, reschedule and retry.

        Whether a re-placement is a *failure restart* is decided here,
        where the cause is known — a believed-down host, a host down at
        start, a :class:`HostDownError` — never from the prose of the
        reason (DESIGN §5 decision 12).
        """
        signature = self.runtime.registry.get(node.task_type)
        props = node.properties
        n_nodes = props.n_nodes if props.is_parallel else 1
        span_work = signature.span_work(props.workload_scale, n_nodes)
        memory_mb = props.memory_mb or signature.memory_mb(props.workload_scale)

        while True:
            # The console can suspend an application between attempts
            # too: a task rescheduling while suspended parks here and
            # resumes exactly once when the console releases it.
            yield from self.runtime.console.wait_if_suspended(self.afg.name)
            # An application whose owning Site Manager crashed cannot
            # reschedule or refine; fail typed so checkpoint-restart on
            # a surviving site can take over.
            if not self.runtime.site_managers[self.submit_site].alive:
                raise ManagerUnavailable(self.submit_site)
            record.attempts += 1
            assignment = self.assignment[node.id]
            attempt_start = self.sim.now
            fault = self._placement_fault(assignment)
            if fault is not None:
                yield from self._reschedule(node, record, span, *fault)
                continue
            executions = self._start_slices(node, assignment, span_work, memory_mb)
            if executions is None:
                yield from self._reschedule(
                    node, record, span, "host down at start", failure=True
                )
                continue
            exec_span = self._open(
                SpanKind.EXECUTE, span, task=node.id,
                attempt=record.attempts, host=assignment.primary_host,
            )
            try:
                if (
                    self.speculation is not None
                    and len(executions) == 1
                    and assignment.predicted_time > 0
                    and self.runtime.brownout.speculation_allowed()
                ):
                    yield from self._race_with_backup(
                        node, record, executions[0], span_work, memory_mb, span
                    )
                else:
                    for execution in executions:
                        yield execution.done
            except (HostDownError, Interrupted) as exc:
                # kill surviving siblings before rescheduling
                for execution in executions:
                    if not execution.done.triggered:
                        execution.host.cancel(execution, cause="sibling failed")
                self._close(exec_span, status="failed")
                yield from self._reschedule(
                    node, record, span, str(exc),
                    failure=isinstance(exc, HostDownError),
                )
                continue
            self._settle_attempt(node, record, attempt_start)
            self._close(exec_span)
            return

    def _placement_fault(self, assignment: TaskAssignment):
        """Why this attempt must not start where it is bound, or None:
        ``(reason, span kind, is a failure restart)`` for :meth:`_reschedule`.
        Hosts found fit are read again only once their site's repository
        rows or Group Manager beliefs moved (DESIGN §13.15)."""
        site = assignment.site
        repo = self.runtime.repositories.get(site)
        manager = self.runtime.site_managers.get(site)
        marks = repo is not None and (
            repo.resources.registration_version, repo.resources.state_version,
            manager.belief_mark)
        fit = self._fit.get(site)
        if fit and fit[0] == marks and fit[1].issuperset(assignment.hosts):
            return None
        # Membership first: a departed host has no group, no
        # controller and no repository row, so every later check
        # would crash on it — and a draining or rejoined-at-a-new-
        # epoch host must not take this attempt either (churn
        # invariant I14).  Billed to the drain wait-state.
        stale = self._stale_membership_hosts(assignment)
        if stale:
            return f"membership change: {', '.join(stale)}", SpanKind.DRAIN, False
        # Never start a slice on a host believed down — the chaos
        # invariant the paper's two-level failure detection exists to
        # uphold.  The repository is the durable view, but it goes stale
        # while its Site Manager is crashed (reports are buffered), so
        # the live Group Manager belief fills the gap when that is up.
        down = []
        for h in assignment.hosts:
            if repo.resources.get(h).up:
                gm = manager.group_managers.get(manager.site.group_of(h).name)
                if gm is None or not gm.alive or gm.believes_up(h):
                    continue
            down.append(h)
        if down:
            return (
                f"hosts believed down: {', '.join(down)}",
                SpanKind.RESCHEDULE, True,
            )
        if not fit or fit[0] != marks:
            fit = self._fit[site] = (marks, set())
        fit[1].update(assignment.hosts)
        return None

    def _start_slices(self, node: TaskNode, assignment: TaskAssignment,
                      span_work: float, memory_mb: int):
        """One slice per assigned host; None when one is down at start."""
        controllers = [self.runtime.app_controllers[h] for h in assignment.hosts]
        executions = []
        for controller in controllers:
            try:
                executions.append(controller.start_slice(
                    span_work, memory_mb,
                    label=f"{self.afg.name}:{node.id}", task_id=node.id,
                ))
            except HostDownError:
                return None
        return executions

    def _settle_attempt(self, node: TaskNode, record: TaskRecord,
                        attempt_start: float) -> None:
        """Book the successful attempt: measured time and ratio."""
        record.measured_time = self.sim.now - attempt_start
        final = self.assignment[node.id]
        # the ratio history exists exactly when speculation is on
        if self.speculation is not None and final.predicted_time > 0:
            self.runtime.ratio_tracker.record(
                final.primary_host,
                record.measured_time / final.predicted_time,
            )

    # -- speculative re-execution (straggler defense) -------------------------

    def _race_with_backup(self, node: TaskNode, record: TaskRecord, primary,
                          span_work: float, memory_mb: int, task_span):
        """Race the primary slice against at most one speculative backup.

        A timer process watches the primary's progress; once it exceeds
        the policy's multiple of the (per-host ratio-adjusted) estimate,
        one backup copy is launched on the next-best host.  First
        completion wins the shared ``outcome`` signal, the loser is
        cancelled, and a backup win repoints the live assignment so
        downstream transfers originate from the winner.  A copy that
        fails while its sibling still races is simply ignored; when the
        last live copy fails, the failure propagates to the normal
        rescheduling path.
        """
        race = _Race(
            primary,
            self.sim.signal(f"spec:{self.afg.name}:{node.id}:{record.attempts}"),
            span_work, memory_mb, task_span, [primary],
        )
        self.sim.process(
            self._watch_copy(race, "primary", primary),
            name=f"specwatch:{self.afg.name}:{node.id}:primary",
        )
        self.sim.process(
            self._speculation_timer(node, record, race),
            name=f"spectimer:{self.afg.name}:{node.id}",
        )
        try:
            which, winner = yield race.outcome
        except BaseException:
            if race.entry is not None and race.entry["resolved_at"] is None:
                race.entry["resolved_at"] = self.sim.now
                race.entry["outcome"] = "failed"
            self._close(race.span, status="failed")
            raise

        # first completion wins: cancel the losing copy (if any)
        for execution in race.copies:
            if execution is winner or execution.done.triggered:
                continue
            wasted = execution.elapsed
            execution.host.cancel(execution, cause="lost speculation race")
            self.stats.speculative_wasted_s += wasted
            self.tracer.emit(
                EventKind.SPECULATE_CANCEL, source=self._src,
                task=node.id, host=execution.host.name, wasted_s=wasted,
            )
        backup_won = which == "backup"
        if race.entry is not None:
            race.entry["resolved_at"] = self.sim.now
            race.entry["outcome"] = "backup_win" if backup_won else "primary_win"
        self._close(race.span, status="win" if backup_won else "cancelled")
        if backup_won:
            # a backup win is no reschedule: nothing is journalled
            self._rebind(node.id, race.bid, record)
            self.stats.speculative_wins += 1
            self._speculative_wins.add(node.id)
            self.tracer.emit(
                EventKind.SPECULATE_WIN, source=self._src,
                task=node.id, host=winner.host.name,
                elapsed_s=winner.elapsed,
            )

    def _watch_copy(self, race: _Race, which: str, execution):
        """Report one racing copy's end to the race's ``outcome``."""
        outcome = race.outcome
        try:
            yield execution.done
        except (HostDownError, Interrupted) as exc:
            if outcome.triggered:
                return
            if any(
                not e.done.triggered for e in race.copies if e is not execution
            ):
                return  # a sibling copy is still racing
            outcome.fail(exc)
            return
        if not outcome.triggered:
            outcome.succeed((which, execution))

    def _speculation_timer(self, node: TaskNode, record: TaskRecord,
                           race: _Race):
        """Launch one backup copy once the primary is overdue.

        The trigger threshold is ``predicted × trigger_multiple``
        stretched by the primary host's historical measured/predicted
        ratio quantile, so systematically optimistic predictions don't
        cause endless false speculations.  Inputs are re-staged onto the
        backup host with real (retrying) transfers before its slice
        starts; every yield re-checks the race so a backup is never
        launched for a task that already completed (chaos invariant I8).
        """
        policy = self.speculation
        ratio = self.runtime.ratio_tracker.quantile(race.primary.host.name,
                                                    _RATIO_QUANTILE)
        threshold = (
            self.assignment[node.id].predicted_time * policy.trigger_multiple
            * max(1.0, ratio if ratio is not None else 1.0)
        )
        started = self.sim.now
        while True:
            remaining = threshold - (self.sim.now - started)
            # the epsilon matters: a sub-ulp residue would produce a
            # Timeout too small to advance the clock, spinning forever
            if remaining <= 1e-9:
                break
            yield Timeout(min(policy.check_period_s, remaining))
            if race.decided:
                return

        # Primary is overdue: pick the next-best host elsewhere.
        excluded = set(self._excluded_hosts.get(node.id, ()))
        excluded.update(self.assignment[node.id].hosts)
        bid = self._replacement(node.id, excluded)
        if bid is None:
            return  # nowhere to speculate; keep waiting on the primary
        try:
            for step in self._feed(
                node, bid.primary_host, record, "spec", "speculate",
                race.task_span,
            ):
                yield from step
                if race.decided:
                    return
        except (ExecutionError, DataIntegrityError):
            return  # could not feed the backup; speculation aborted
        self._launch_backup(node, record, race, bid, threshold)

    def _launch_backup(self, node: TaskNode, record: TaskRecord, race: _Race,
                       bid, threshold: float) -> None:
        """Start the fed backup copy and enter it in the race."""
        backup_host = bid.primary_host
        primary_host = race.primary.host.name
        try:
            backup = self.runtime.app_controllers[backup_host].start_slice(
                race.span_work, race.memory_mb,
                label=f"{self.afg.name}:{node.id}:spec", task_id=node.id,
            )
        except HostDownError:
            return
        race.copies.append(backup)
        race.bid = bid
        race.entry = {
            "application": self.afg.name,
            "task": node.id,
            "attempt": record.attempts,
            "launched_at": self.sim.now,
            "primary_host": primary_host,
            "backup_host": backup_host,
            "resolved_at": None,
            "outcome": None,
        }
        self.speculation_log.append(race.entry)
        # sibling of the primary's execute span under the task span
        race.span = self._open(
            SpanKind.SPECULATE_BACKUP, race.task_span, task=node.id,
            host=backup_host, primary_host=primary_host,
        )
        self.stats.speculative_launches += 1
        self.tracer.emit(
            EventKind.SPECULATE, source=self._src,
            task=node.id, primary_host=primary_host,
            backup_host=backup_host, threshold_s=threshold,
        )
        self.runtime.health.penalize(
            primary_host, _STRAGGLE_PENALTY, "straggle", origin=self._src,
        )
        self.sim.process(
            self._watch_copy(race, "backup", backup),
            name=f"specwatch:{self.afg.name}:{node.id}:backup",
        )

    def _verify_speculative_outputs(self, node: TaskNode, inputs, outputs) -> None:
        """Cross-check a speculative winner against pure evaluation.

        Task implementations are pure, so whichever copy won, the
        outputs must hash identically to a fresh evaluation of the
        task's signature on the same inputs — a free Byzantine /
        corruption check (the same oracle checkpoint resume uses).
        """
        signature = self.runtime.registry.get(node.task_type)
        expected = signature.run(inputs, node.properties.workload_scale)
        got = [value_hash(v) for v in outputs]
        want = [value_hash(v) for v in expected]
        if got != want:
            raise ExecutionError(
                f"speculative output mismatch for task {node.id!r}: "
                f"{got} != {want}"
            )

    # -- membership and liveness guards ----------------------------------------

    def _note_assignment_epochs(self, assignment: TaskAssignment) -> None:
        """Capture the membership epoch of every host in ``assignment``.

        Called at binding time (construction and :meth:`_rebind`) so
        :meth:`_stale_membership_hosts` can detect a depart/rejoin
        cycle that happened in between.  Hosts a checkpointed
        assignment names but no repository knows are left unstamped —
        the staleness check reports them as departed.
        """
        repo = self.runtime.repositories.get(assignment.site)
        if repo is None:
            return
        for h in assignment.hosts:
            if repo.resources.has_host(h):
                self._bound_epochs[h] = repo.resources.membership_epoch(h)

    def _stale_membership_hosts(self, assignment: TaskAssignment) -> List[str]:
        """Assigned hosts whose membership no longer supports placement.

        A host is stale when it departed the federation (no repository
        row), is not ACTIVE (draining hosts take no new attempts —
        that is the entire point of a graceful drain), or carries a
        different epoch than the one this placement was bound under
        (departed and rejoined in between: its dynamic state was
        discarded, so the old binding must not be trusted).  Fault-free
        runs see every host ACTIVE at epoch 0 and this returns [].
        """
        repo = self.runtime.repositories.get(assignment.site)
        if repo is None:
            return [f"{h} (site departed)" for h in assignment.hosts]
        stale: List[str] = []
        for h in assignment.hosts:
            if not repo.resources.has_host(h):
                stale.append(f"{h} (departed)")
                continue
            state = repo.resources.membership_state(h)
            if state != MembershipState.ACTIVE:
                stale.append(f"{h} ({state})")
                continue
            epoch = repo.resources.membership_epoch(h)
            if epoch != self._bound_epochs.get(h, epoch):
                stale.append(
                    f"{h} (epoch {self._bound_epochs[h]} -> {epoch})"
                )
        return stale

    # -- re-placement: where does the work go next ----------------------------

    def _site_reachable(self, site_name: str) -> bool:
        """Can the submitting site currently talk to ``site_name``?"""
        if site_name == self.submit_site:
            return True
        if site_name in self._unreachable_sites:
            return False
        return self.runtime.topology.network.reachable(self.submit_site, site_name)

    def _replacement(self, task_id: str, excluded: set):
        """The first bid for ``task_id`` off the ``excluded`` hosts, or None.

        Sites are asked in locality order — the task's current site,
        the submit site, then the neighbours — skipping any the
        submitting site cannot currently reach.
        """
        sites = [
            self.assignment[task_id].site, self.submit_site,
            *self.runtime.neighbor_order(self.submit_site),
        ]
        for site_name in dict.fromkeys(sites):
            if not self._site_reachable(site_name):
                continue
            bid = self.runtime.site_managers[site_name].reselect_host(
                self.afg, task_id, frozenset(excluded), self.runtime.model
            )
            if bid is not None:
                return bid
        return None

    def _rebind(self, task_id: str, bid, record: Optional[TaskRecord] = None,
                reason: Optional[str] = None) -> TaskAssignment:
        """Make ``bid`` the task's live placement: the running task's
        ``record`` (once it has one) follows, the hosts' membership
        epochs are re-stamped, and a re-placement with a ``reason`` is
        journalled as a ``reschedule`` record."""
        assignment = TaskAssignment(
            task_id=task_id,
            site=bid.site,
            hosts=bid.hosts,
            predicted_time=bid.predicted_time,
        )
        self.assignment[task_id] = assignment
        if record is not None:
            record.site = assignment.site
            record.hosts = assignment.hosts
        self._note_assignment_epochs(assignment)
        if reason is not None:
            self._journal_append(
                "reschedule", task=task_id, reason=reason,
                site=assignment.site, hosts=list(assignment.hosts),
            )
        return assignment

    def _count_reschedule(self, task_id: str, reason: str, failure: bool) -> None:
        """Count and trace one rescheduling request off the current placement."""
        self._reschedules += 1
        self.stats.reschedule_requests += 1
        if failure:
            self.stats.failure_restarts += 1
        current = self.assignment[task_id]
        self.tracer.emit(
            EventKind.RESCHEDULE, source=self._src,
            task=task_id, reason=reason,
            from_site=current.site, from_hosts=current.hosts,
        )

    def _reschedule(self, node: TaskNode, record: TaskRecord, span,
                    reason: str, span_kind: str = SpanKind.RESCHEDULE,
                    failure: bool = False):
        """Obtain a replacement placement and re-stage inputs onto it.

        ``span_kind`` selects the wait-state the re-placement is billed
        to: RESCHEDULE for failures/load, DRAIN when a membership
        transition (graceful drain, decommission, rejoin) invalidated
        the original binding.  ``failure`` says whether the cause was a
        host or site failure (a *failure restart*) — the caller knows
        the cause; ``reason`` is prose for the record and the trace.
        """
        resched_span = self._open(span_kind, span, task=node.id, reason=reason)
        if self.sim.metrics.enabled:
            self.sim.metrics.counter(
                "vdce_reschedules_total",
                "task rescheduling requests, by originating site",
            ).inc(site=self.assignment[node.id].site)
        self._count_reschedule(node.id, reason, failure)
        excluded = self._excluded_hosts.setdefault(node.id, set())
        excluded.update(self.assignment[node.id].hosts)
        record.reschedule_reasons.append(reason)
        bid = self._replacement(node.id, excluded)
        if bid is None:
            raise ExecutionError(
                f"no replacement host for task {node.id!r} "
                f"(excluded: {sorted(excluded)}; reason: {reason})"
            )
        placement = self._rebind(node.id, bid, record, reason)
        # Re-stage inputs onto the new primary host (link-outage safe).
        for step in self._feed(
            node, placement.primary_host, record, "restage", "restage",
            resched_span,
        ):
            yield from step
        self._close(resched_span, site=placement.site)

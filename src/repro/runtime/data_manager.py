"""LocalDataManager: execute an AFG over *real* TCP sockets (paper §4.2).

Where :mod:`repro.runtime.execution` simulates the Data Manager on
virtual time, this module runs the identical protocol for real on one
machine: every logical host gets a :class:`~repro.net.proxy.CommunicationProxy`
listening on a localhost port, every AFG edge becomes a genuine TCP
channel (setup message, acknowledgment), the startup signal is a
:class:`threading.Event` raised only after all acks arrive, each task
runs in its own thread, and payloads move as pickled frames through the
sockets.  Task implementations execute for real, so results are
numerically identical to the simulated path — the cross-check tests
rely on that.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.afg.graph import ApplicationFlowGraph, Edge
from repro.errors import AggregateExecutionError
from repro.metrics.registry import MetricsRegistry, NULL_METRICS
from repro.net.messages import EdgeKey
from repro.net.proxy import CommunicationProxy, ProxyAborted, ProxyError
from repro.scheduler.allocation import AllocationTable
from repro.tasklib.registry import TaskRegistry, default_registry
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["LocalDataManager", "RealExecutionReport", "RealTaskRecord"]


def _edge_key(edge: Edge) -> EdgeKey:
    return (edge.src, edge.dst, edge.src_port, edge.dst_port)


@dataclass
class RealTaskRecord:
    """Wall-clock telemetry for one task thread."""

    task_id: str
    host: str
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class RealExecutionReport:
    """Outcome of one real-socket application run."""

    application: str
    startup_wall_s: float  # channel setup -> startup signal
    makespan_wall_s: float  # startup -> last task finish
    records: Dict[str, RealTaskRecord]
    outputs: Dict[str, List[Any]]
    channels: int
    acks: int
    payloads: int
    bytes_sent: int


class LocalDataManager:
    """Run small AFGs for real over localhost sockets."""

    def __init__(
        self,
        registry: Optional[TaskRegistry] = None,
        timeout_s: float = 30.0,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
        verify_hashes: bool = False,
    ):
        """``tracer`` records the real run on the wall clock — construct
        it as ``Tracer(clock=time.monotonic)``.  Real-path traces are
        *not* deterministic (wall times vary); they exist for debugging
        and for comparing event **counts** against the simulated path.
        ``metrics`` likewise measures the real path on the wall clock;
        real-path snapshots are comparison aids, not oracles.
        ``verify_hashes`` stamps every Data frame with the payload's
        canonical content hash and verifies it on receive — the real
        half of DESIGN §16's end-to-end integrity protocol."""
        self.registry = registry or default_registry()
        self.timeout_s = timeout_s
        #: one emitter: the registry folds what the tracer emits
        self.tracer = metrics.emitter(tracer)
        self.metrics = metrics
        self.verify_hashes = verify_hashes

    def execute(
        self, afg: ApplicationFlowGraph, table: AllocationTable
    ) -> RealExecutionReport:
        """Execute ``afg`` as placed by ``table``; blocks until done."""
        table.validate_against(afg)
        hosts = sorted({h for a in table.assignments.values() for h in a.hosts})
        proxies: Dict[str, CommunicationProxy] = {
            h: CommunicationProxy(h, timeout_s=self.timeout_s) for h in hosts
        }
        try:
            return self._execute_with_proxies(afg, table, proxies)
        finally:
            for proxy in proxies.values():
                proxy.close()

    def _execute_with_proxies(
        self,
        afg: ApplicationFlowGraph,
        table: AllocationTable,
        proxies: Dict[str, CommunicationProxy],
    ) -> RealExecutionReport:
        setup_started = time.monotonic()

        # Channel setup: source host's proxy connects to destination host's
        # proxy for every edge; the Ack is the §4.2 acknowledgment.
        channels: Dict[EdgeKey, Any] = {}
        for edge in afg.edges:
            key = _edge_key(edge)
            src_host = table.get(edge.src).primary_host
            dst_host = table.get(edge.dst).primary_host
            channels[key] = proxies[src_host].open_channel(
                afg.name, key, proxies[dst_host].address, dst_host,
                verify_hashes=self.verify_hashes,
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.CHANNEL_SETUP, source=f"dm:{afg.name}",
                    edge=[edge.src, edge.dst], src_host=src_host,
                    dst_host=dst_host, real=True,
                )

        # "When all the required acknowledgments are received an execution
        # startup signal is sent to start the application execution."
        startup = threading.Event()
        startup_wall = time.monotonic() - setup_started

        records: Dict[str, RealTaskRecord] = {}
        outputs: Dict[str, List[Any]] = {}
        errors: List[BaseException] = []
        lock = threading.Lock()
        #: raised when any task fails: dependents blocked in receive()
        #: unblock within one poll slice instead of the full timeout
        abort = threading.Event()

        def task_body(task_id: str) -> None:
            try:
                node = afg.task(task_id)
                signature = self.registry.get(node.task_type)
                assignment = table.get(task_id)
                host = assignment.primary_host
                record = RealTaskRecord(task_id=task_id, host=host)
                with lock:
                    records[task_id] = record

                startup.wait(self.timeout_s)

                port_values: Dict[int, Any] = {}
                for edge in sorted(afg.in_edges(task_id), key=lambda e: e.dst_port):
                    value = proxies[host].receive(_edge_key(edge), abort=abort)
                    port_values[edge.dst_port] = value
                inputs = [port_values.get(p) for p in range(node.n_in_ports)]

                record.started_at = time.monotonic()
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.TASK_START, source=f"dm:{afg.name}",
                        task=task_id, host=host, real=True,
                    )
                result = signature.run(inputs, node.properties.workload_scale)
                record.finished_at = time.monotonic()
                if self.tracer.enabled:
                    self.tracer.emit(
                        EventKind.TASK_FINISH, source=f"dm:{afg.name}",
                        task=task_id, host=host, real=True,
                        measured_time=record.elapsed,
                    )

                for edge in afg.out_edges(task_id):
                    channels[_edge_key(edge)].send(result[edge.src_port])
                if not afg.out_edges(task_id):
                    with lock:
                        outputs[task_id] = result
            except ProxyAborted:
                # secondary casualty of a sibling's failure: the root
                # cause is already in ``errors``, don't bury it
                return
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(exc)
                abort.set()

        threads = [
            threading.Thread(target=task_body, args=(t,), name=f"task:{t}")
            for t in afg.topological_order()
        ]
        run_started = time.monotonic()
        for thread in threads:
            thread.start()
        startup.set()
        self.tracer.emit(EventKind.STARTUP_SIGNAL, source=f"dm:{afg.name}",
                         real=True)
        for thread in threads:
            thread.join(self.timeout_s)
            if thread.is_alive():
                errors.append(ProxyError(f"task thread {thread.name} hung"))
        makespan_wall = time.monotonic() - run_started

        for channel in channels.values():
            channel.close()

        if self.metrics.enabled:
            self.metrics.counter(
                "vdce_real_channels_total", "TCP channels opened (real path)"
            ).inc(len(channels))
            self.metrics.counter(
                "vdce_real_payload_bytes_total",
                "pickled payload bytes sent through real sockets",
            ).inc(sum(c.bytes_sent for c in channels.values()))
            runtime_hist = self.metrics.histogram(
                "vdce_real_task_wall_seconds",
                "wall-clock task execution time (real path)",
            )
            for record in records.values():
                if record.finished_at > 0:
                    runtime_hist.observe(record.elapsed, host=record.host)

        if errors:
            raise AggregateExecutionError(errors)

        return RealExecutionReport(
            application=afg.name,
            startup_wall_s=startup_wall,
            makespan_wall_s=makespan_wall,
            records=records,
            outputs=outputs,
            channels=len(channels),
            acks=sum(p.acks_sent for p in proxies.values()),
            payloads=sum(p.payloads_received for p in proxies.values()),
            bytes_sent=sum(c.bytes_sent for c in channels.values()),
        )

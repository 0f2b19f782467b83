"""Elastic membership: runtime host join, graceful drain, rejoin (DESIGN §17).

The paper's federation is assembled once at deployment; real WAN
federations churn.  The :class:`MembershipCoordinator` drives the
epoch-stamped per-host state machine of
:class:`~repro.repository.resources.MembershipState` across *every*
layer in one step, so no component ever observes a half-joined or
half-departed host:

* **admit** — instantiate the host, wire it into its site/group
  (:meth:`~repro.sim.topology.Topology.attach_host`), register its
  resource row as JOINING, install its executable constraints, seed the
  Group Manager's beliefs, start a Monitor daemon and an Application
  Controller, then activate (JOINING → ACTIVE).
* **drain** — flip the row to DRAINING (host selection stops scoring it
  the same instant), let resident executions finish within a deadline,
  preempt the remainder, then retire.  Evicted attempts flow through
  the coordinator's normal rescheduling path, billed to the ``drain``
  wait-state.
* **retire** — the inverse of admit, in one step: evict residents,
  deregister both repository sides symmetrically (tombstone kept),
  detach from the topology, forget Group Manager beliefs, stop the
  monitor, unhook and drop the controller.
* **rejoin** — a departed name comes back *at its original site* under
  epoch + 1: dynamic state is discarded (fresh row, fresh Host object),
  task-performance calibration is deliberately kept, and anything
  stamped with the old epoch is recognisably stale.

Everything here is driven by explicit calls (Site Manager RPCs or the
:class:`~repro.sim.failures.FailureInjector` churn schedules); a
deployment that never churns never constructs extra state, draws no
RNG, and emits no events — fault-free traces stay byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.repository.resources import MembershipError, MembershipState
from repro.sim.host import Host, HostSpec, Interrupted
from repro.sim.kernel import Timeout
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.vdce_runtime import VDCERuntime

__all__ = ["MembershipCoordinator"]


class MembershipCoordinator:
    """Runtime-wide driver for host membership transitions."""

    def __init__(self, runtime: "VDCERuntime"):
        self.runtime = runtime
        self.sim = runtime.sim
        self.tracer = runtime.tracer
        #: audit log of every completed transition, for the churn
        #: invariants (I14-I16) and the chaos report
        self.transitions: List[Dict[str, Any]] = []
        #: rejoin bookkeeping: departed name -> (site, group, last spec)
        self._departed_info: Dict[str, Tuple[str, str, HostSpec]] = {}
        #: hosts with an in-flight drain process
        self._draining: set = set()

    # -- bookkeeping --------------------------------------------------------

    def _record(
        self, host: str, site: str, transition: str, epoch: int, **extra: Any
    ) -> Dict[str, Any]:
        entry = {
            "time": self.sim.now,
            "host": host,
            "site": site,
            "transition": transition,
            "epoch": epoch,
            **extra,
        }
        self.transitions.append(entry)
        return entry

    def _wire_host(self, site_name: str, group_name: str, host: Host) -> None:
        """Attach runtime components for a freshly (re)joined host."""
        gm = self.runtime.site_managers[site_name].group_managers[group_name]
        gm.admit_host(host)
        self.runtime.attach_host(gm, host)

    # -- transitions --------------------------------------------------------

    def admit_host(
        self,
        site_name: str,
        group_name: str,
        spec: HostSpec,
        activate: bool = True,
    ) -> Host:
        """JOINING (→ ACTIVE): bring a brand-new host into the federation."""
        if spec.name in self._departed_info:
            raise MembershipError(
                f"host {spec.name!r} departed this runtime; use rejoin_host"
            )
        repo = self.runtime.repositories[site_name]
        host = self.runtime.topology.attach_host(site_name, group_name, spec)
        repo.resources.register_host(
            spec, group=group_name, state=MembershipState.JOINING
        )
        repo.constraints.install_everywhere(
            self.runtime.registry.names(), (spec.name,)
        )
        self._wire_host(site_name, group_name, host)
        self.tracer.emit(
            EventKind.HOST_JOIN, source=f"membership:{site_name}",
            host=spec.name, site=site_name, group=group_name,
        )
        self._record(spec.name, site_name, "join", 0)
        if activate:
            repo.resources.activate_host(spec.name, time=self.sim.now)
        return host

    def drain_host(
        self, name: str, deadline_s: float, retire: bool = True
    ) -> None:
        """ACTIVE → DRAINING: stop new placements now, evict at deadline.

        The repository transition is immediate — host selection, the
        host index and the federation view stop scoring the host the
        same instant.  Resident executions keep running; a drain process
        preempts whatever is left after ``deadline_s`` and (with
        ``retire=True``) completes the departure.
        """
        if deadline_s <= 0:
            raise ValueError(f"drain deadline must be positive, got {deadline_s}")
        host = self.runtime.topology.host(name)  # raises for unknown hosts
        site_name = host.site_name
        repo = self.runtime.repositories[site_name]
        repo.resources.begin_draining(name, time=self.sim.now)
        self._draining.add(name)
        self.tracer.emit(
            EventKind.HOST_DRAIN, source=f"membership:{site_name}",
            host=name, site=site_name, deadline_s=deadline_s,
            resident=host.n_running,
        )
        self._record(
            name, site_name, "drain",
            repo.resources.membership_epoch(name), deadline_s=deadline_s,
        )
        self.sim.process(
            self._drain_process(name, deadline_s, retire), name=f"drain:{name}"
        )

    def _drain_process(self, name: str, deadline_s: float, retire: bool):
        yield Timeout(deadline_s)
        if name not in self._draining:
            return  # something else (a hard retire) won the race
        self._draining.discard(name)
        if retire:
            self.retire_host(name)
        else:
            host = self.runtime.topology.host(name)
            host.preempt_all(Interrupted(f"host {name} drained"))

    def retire_host(self, name: str) -> None:
        """→ DEPARTED: evict residents and remove the host everywhere."""
        topo = self.runtime.topology
        host = topo.host(name)  # raises for unknown hosts
        site_name = host.site_name
        group = topo.site(site_name).group_of(name)
        manager = self.runtime.site_managers[site_name]
        repo = self.runtime.repositories[site_name]
        epoch = repo.resources.membership_epoch(name)
        preempted = host.preempt_all(
            Interrupted(f"host {name} decommissioned")
        )
        # repository: both sides in one step (constraints + tombstoned row)
        repo.deregister_host(name)
        topo.detach_host(name)
        gm = manager.group_managers.get(group.name)
        if gm is not None:
            gm.retire_host(name)
        monitor = self.runtime.monitors.pop(name, None)
        if monitor is not None:
            monitor.stop()
        controller = self.runtime.app_controllers.pop(name, None)
        if controller is not None:
            controller.detach()
        manager.app_controllers.pop(name, None)
        self._draining.discard(name)
        self._departed_info[name] = (site_name, group.name, host.spec)
        self.tracer.emit(
            EventKind.HOST_DEPART, source=f"membership:{site_name}",
            host=name, site=site_name, epoch=epoch, preempted=preempted,
        )
        self._record(
            name, site_name, "depart", epoch, preempted=preempted
        )

    def rejoin_host(
        self, name: str, spec: HostSpec = None, activate: bool = True
    ) -> Host:
        """REJOINING (→ ACTIVE): a departed host returns under epoch + 1.

        The host comes back at the site and group it departed from (the
        network keeps its routing entry).  ``spec`` may carry changed
        hardware under the same name — the prediction memo was
        invalidated at departure, so the new spec is re-scored from
        scratch, while the task-performance calibration the host earned
        before departing is deliberately kept.
        """
        info = self._departed_info.get(name)
        if info is None:
            raise MembershipError(
                f"host {name!r} never departed this runtime; use admit_host"
            )
        site_name, group_name, old_spec = info
        spec = spec if spec is not None else old_spec
        if spec.name != name:
            raise ValueError(
                f"rejoin spec is named {spec.name!r}, expected {name!r}"
            )
        repo = self.runtime.repositories[site_name]
        host = self.runtime.topology.attach_host(site_name, group_name, spec)
        record = repo.resources.rejoin_host(
            spec, group=group_name, time=self.sim.now
        )
        repo.constraints.install_everywhere(
            self.runtime.registry.names(), (name,)
        )
        self._wire_host(site_name, group_name, host)
        del self._departed_info[name]
        self.tracer.emit(
            EventKind.HOST_REJOIN, source=f"membership:{site_name}",
            host=name, site=site_name, epoch=record.epoch,
        )
        self._record(name, site_name, "rejoin", record.epoch)
        if activate:
            repo.resources.activate_host(name, time=self.sim.now)
        return host

    # -- queries ------------------------------------------------------------

    def is_draining(self, name: str) -> bool:
        return name in self._draining

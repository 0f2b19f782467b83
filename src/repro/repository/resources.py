"""Resource-performance database: host attributes + live workload view.

Paper §3: "A resource performance database provides resource (machine
and network) attributes or parameters such as host name, IP address,
architecture type, OS type, total memory size of the machine, recent
workload measurements, and available memory size."

Crucially this database holds the *scheduler's belief*, not ground
truth: entries are only as fresh as the last Monitor -> Group Manager
-> Site Manager update (paper §4.1), and experiment E5 measures exactly
that staleness.  ``mark_down`` realises "the host is then marked as
'down' at the site's resource-performance database".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.host import HostSpec
from repro.sim.network import LinkSpec

__all__ = [
    "HostRecord",
    "MembershipError",
    "MembershipState",
    "RegistrationSyncError",
    "ResourcePerformanceDB",
]


class MembershipState:
    """Per-host membership states (elastic federation roster).

    The legal transitions form a small epoch-stamped state machine::

        JOINING ----> ACTIVE ----> DRAINING ----> DEPARTED
                        ^                            |
                        |                            v
                        +------- REJOINING <---------+  (epoch + 1)

    ``DEPARTED`` is a tombstone: the row is deregistered but the host's
    last epoch is remembered, so a later rejoin under the same name gets
    a *higher* epoch and any placement stamped with the old epoch is
    recognisably stale.  Hard decommission skips DRAINING (ACTIVE ->
    DEPARTED directly).
    """

    JOINING = "joining"
    ACTIVE = "active"
    DRAINING = "draining"
    DEPARTED = "departed"
    REJOINING = "rejoining"

    #: states in which the row exists in the database
    LIVE = frozenset({JOINING, ACTIVE, DRAINING, REJOINING})


class MembershipError(RuntimeError):
    """An illegal membership operation (bad transition, unknown host)."""


class RegistrationSyncError(MembershipError):
    """Constraint and resource registrations would silently diverge.

    Raised when one side of a host's registration (executable
    constraints vs resource row) is removed while the other still
    actively references the host — the typed alternative to the silent
    divergence that used to be possible (issue 10, satellite 1).
    """


@dataclass(frozen=True)
class HostRecord:
    """One host's row: static spec + last-reported dynamic state."""

    spec: HostSpec
    site: str
    group: str = ""
    up: bool = True
    #: last reported run-queue length (recent workload measurement)
    load: float = 0.0
    available_memory_mb: int = 0
    #: virtual time of the last workload update (-inf = never reported)
    updated_at: float = float("-inf")
    #: membership state (see :class:`MembershipState`); only ACTIVE
    #: hosts are ever scored by host selection
    state: str = MembershipState.ACTIVE
    #: membership epoch: 0 on first registration, +1 per rejoin — a
    #: placement stamped with an older epoch is stale by definition
    epoch: int = 0

    @property
    def name(self) -> str:
        return self.spec.name


class ResourcePerformanceDB:
    """Host rows plus the network attributes of the site's links."""

    def __init__(self, site_name: str):
        self.site_name = site_name
        self._hosts: Dict[str, HostRecord] = {}
        #: network attributes: link name -> spec (LAN + WANs to neighbours)
        self._links: Dict[str, LinkSpec] = {}
        self.workload_updates = 0
        self.status_updates = 0
        #: bumped when the host *population* changes (registrations)
        self.registration_version = 0
        #: bumped on every dynamic write (workload report, up/down
        #: transition); with ``registration_version`` it keys the host
        #: index's rows, valid precisely while no host row changed
        self.state_version = 0
        #: tombstones: departed host name -> its epoch at departure,
        #: consulted by :meth:`rejoin_host` to stamp the next epoch
        self._departed: Dict[str, int] = {}
        #: optional guard wired by :class:`~repro.repository.store.SiteRepository`:
        #: called with a host name, True means executable constraints
        #: still reference it (deregistering then would diverge)
        self._constraint_check: Optional[Callable[[str], bool]] = None

    # -- host registration --------------------------------------------------

    def register_host(
        self,
        spec: HostSpec,
        group: str = "",
        state: str = MembershipState.ACTIVE,
        epoch: int = 0,
    ) -> HostRecord:
        if spec.name in self._hosts:
            raise ValueError(f"host {spec.name!r} already registered")
        if spec.name in self._departed:
            raise MembershipError(
                f"host {spec.name!r} departed this site (epoch "
                f"{self._departed[spec.name]}); use rejoin_host"
            )
        if state not in MembershipState.LIVE:
            raise MembershipError(
                f"cannot register {spec.name!r} in state {state!r}"
            )
        record = HostRecord(
            spec=spec,
            site=self.site_name,
            group=group,
            available_memory_mb=spec.memory_mb,
            state=state,
            epoch=epoch,
        )
        self._hosts[spec.name] = record
        self.registration_version += 1
        return record

    def deregister_host(self, name: str) -> HostRecord:
        """Remove a host's row (symmetric to :meth:`register_host`).

        The departed host leaves a tombstone carrying its epoch.  Raises
        :class:`RegistrationSyncError` if executable constraints still
        reference the host — remove those first (the site repository's
        ``deregister_host`` does both sides in one step).
        """
        record = self.get(name)
        if self._constraint_check is not None and self._constraint_check(name):
            raise RegistrationSyncError(
                f"cannot deregister {name!r}: executable constraints still "
                f"reference it"
            )
        del self._hosts[name]
        self._departed[name] = record.epoch
        self.registration_version += 1
        return record

    def rejoin_host(
        self, spec: HostSpec, group: str = "", time: float = float("-inf")
    ) -> HostRecord:
        """Re-register a previously departed host under a fresh epoch.

        Stale-record reconciliation: the dynamic state the old row
        carried (load, available memory, up/down) is *discarded* — the
        new row starts unreported, exactly like a fresh registration —
        while calibration held elsewhere (the task-performance database)
        is deliberately untouched and carries over.  The epoch is the
        departed epoch + 1, so anything stamped with the old epoch is
        recognisably stale.
        """
        if spec.name in self._hosts:
            raise MembershipError(f"host {spec.name!r} is already registered")
        if spec.name not in self._departed:
            raise MembershipError(
                f"host {spec.name!r} never departed; use register_host"
            )
        epoch = self._departed.pop(spec.name) + 1
        record = HostRecord(
            spec=spec,
            site=self.site_name,
            group=group,
            available_memory_mb=spec.memory_mb,
            state=MembershipState.REJOINING,
            epoch=epoch,
        )
        self._hosts[spec.name] = record
        self.registration_version += 1
        return record

    # -- membership transitions ----------------------------------------------

    def begin_draining(self, name: str, time: float) -> HostRecord:
        """ACTIVE -> DRAINING: stop scoring the host, keep it running."""
        return self._transition(
            name, MembershipState.DRAINING, time, {MembershipState.ACTIVE}
        )

    def activate_host(self, name: str, time: float) -> HostRecord:
        """JOINING/REJOINING -> ACTIVE: the host becomes schedulable."""
        return self._transition(
            name,
            MembershipState.ACTIVE,
            time,
            {MembershipState.JOINING, MembershipState.REJOINING},
        )

    def _transition(
        self, name: str, state: str, time: float, allowed_from: frozenset
    ) -> HostRecord:
        record = self.get(name)
        if record.state not in allowed_from:
            raise MembershipError(
                f"host {name!r}: illegal transition {record.state!r} -> "
                f"{state!r}"
            )
        record = replace(record, state=state, updated_at=time)
        self._hosts[name] = record
        self.state_version += 1
        return record

    def membership_state(self, name: str) -> str:
        """The host's state; DEPARTED for tombstoned names."""
        if name in self._hosts:
            return self._hosts[name].state
        if name in self._departed:
            return MembershipState.DEPARTED
        raise MembershipError(
            f"host {name!r} was never a member of site {self.site_name!r}"
        )

    def membership_epoch(self, name: str) -> int:
        if name in self._hosts:
            return self._hosts[name].epoch
        if name in self._departed:
            return self._departed[name]
        raise MembershipError(
            f"host {name!r} was never a member of site {self.site_name!r}"
        )

    def departed_hosts(self) -> Dict[str, int]:
        """Tombstones: departed host name -> epoch at departure."""
        return dict(self._departed)

    def restore_departed(self, name: str, epoch: int) -> None:
        """Persistence hook: re-seed a departure tombstone on load."""
        if name in self._hosts:
            raise MembershipError(
                f"host {name!r} is registered; cannot tombstone it"
            )
        self._departed[name] = epoch

    def set_constraint_check(self, check: Callable[[str], bool]) -> None:
        self._constraint_check = check

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    def get(self, name: str) -> HostRecord:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(
                f"host {name!r} not in resource DB of site {self.site_name!r}"
            ) from None

    def arch_os(self, name: str) -> Tuple[str, str]:
        """The host's (architecture, OS) — what a machine-type
        preference is matched against."""
        spec = self.get(name).spec
        return spec.arch, spec.os

    # -- dynamic updates (written by the Site Manager) -----------------------

    def update_workload(
        self, name: str, load: float, available_memory_mb: int, time: float
    ) -> HostRecord:
        if load < 0:
            raise ValueError(f"negative load for {name!r}")
        if available_memory_mb < 0:
            raise ValueError(f"negative available memory for {name!r}")
        record = replace(
            self.get(name),
            load=load,
            available_memory_mb=available_memory_mb,
            updated_at=time,
        )
        self._hosts[name] = record
        self.workload_updates += 1
        self.state_version += 1
        return record

    def mark_down(self, name: str, time: float) -> HostRecord:
        record = replace(self.get(name), up=False, updated_at=time)
        self._hosts[name] = record
        self.status_updates += 1
        self.state_version += 1
        return record

    def mark_up(self, name: str, time: float) -> HostRecord:
        record = replace(self.get(name), up=True, updated_at=time)
        self._hosts[name] = record
        self.status_updates += 1
        self.state_version += 1
        return record

    # -- queries (read by the scheduler) ---------------------------------------

    def all_hosts(self) -> List[HostRecord]:
        return list(self._hosts.values())

    def up_hosts(self) -> List[HostRecord]:
        return [r for r in self._hosts.values() if r.up]

    def host_names(self) -> List[str]:
        return list(self._hosts)

    def staleness(self, name: str, now: float) -> float:
        """Age of the last workload report for ``name`` at time ``now``."""
        return now - self.get(name).updated_at

    # -- network attributes ------------------------------------------------------

    def set_link(self, name: str, spec: LinkSpec) -> None:
        self._links[name] = spec

    def get_link(self, name: str) -> LinkSpec:
        try:
            return self._links[name]
        except KeyError:
            raise KeyError(f"unknown link {name!r}") from None

    def links(self) -> Dict[str, LinkSpec]:
        return dict(self._links)

    def __len__(self) -> int:
        return len(self._hosts)

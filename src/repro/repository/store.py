"""SiteRepository: the four databases of one site, bundled.

The Site Manager "bridges the VDCE modules to the site databases"
(paper §1); in this codebase every module that the paper routes through
the Site Manager takes a :class:`SiteRepository` and reads/writes the
appropriate member database.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.repository.constraints import TaskConstraintsDB
from repro.repository.host_index import HostIndex
from repro.repository.resources import (
    MembershipError,
    MembershipState,
    ResourcePerformanceDB,
)
from repro.repository.taskperf import TaskPerformanceDB
from repro.repository.users import AccessDomain, UserAccountsDB
from repro.sim.site import Site
from repro.tasklib.registry import TaskRegistry

__all__ = ["SiteRepository"]


class SiteRepository:
    """User accounts + resource performance + task performance + constraints."""

    def __init__(self, site_name: str):
        self.site_name = site_name
        self.users = UserAccountsDB()
        self.resources = ResourcePerformanceDB(site_name)
        self.task_perf = TaskPerformanceDB(site_name)
        self.constraints = TaskConstraintsDB(site_name)
        #: host selection's accessory: version-invalidated, derived
        #: state only — never serialized, rebuilt on restore
        self.host_index = HostIndex(
            self.resources, self.constraints, self.task_perf)
        # Symmetry guards (issue 10): removing one side of a host's
        # registration while the other still references it is a typed
        # error, not silent divergence.  "Actively registered" excludes
        # DRAINING — the sanctioned drain->retire sequence removes
        # constraints while the resource row is still draining.
        self.resources.set_constraint_check(self.constraints.references_host)
        self.constraints.set_registration_check(self._actively_registered)

    def _actively_registered(self, name: str) -> bool:
        if not self.resources.has_host(name):
            return False
        return self.resources.get(name).state in (
            MembershipState.ACTIVE,
            MembershipState.JOINING,
            MembershipState.REJOINING,
        )

    def deregister_host(self, name: str) -> None:
        """Symmetric removal of a host: constraints *and* resource row.

        The sanctioned way to fully decommission a host at this layer —
        both databases change in one step, so the cross-checks that
        guard the individual ``remove_host``/``deregister_host`` calls
        can never observe a diverged intermediate state.
        """
        if not self.resources.has_host(name):
            raise MembershipError(
                f"host {name!r} is not registered at site {self.site_name!r}"
            )
        self.constraints.remove_host(name, deregistering=True)
        self.resources.deregister_host(name)

    @classmethod
    def bootstrap(
        cls,
        site: Site,
        registry: TaskRegistry,
        admin_password: str = "vdce-admin",
    ) -> "SiteRepository":
        """Bring up a repository for a simulated site.

        Registers every site host in the resource DB (with its group),
        seeds the task-performance DB from the library registry,
        installs every task executable on every host, and creates an
        ``admin`` account — the state a freshly deployed VDCE server
        would have after its install scripts ran.
        """
        repo = cls(site.name)
        for group in site.groups.values():
            for host in group:
                repo.resources.register_host(host.spec, group=group.name)
        repo.task_perf.load_from_registry(registry)
        repo.constraints.install_everywhere(
            registry.names(), (h.name for h in site)
        )
        repo.users.add_user(
            "admin",
            admin_password,
            priority=10,
            access_domain=AccessDomain.GLOBAL,
        )
        return repo

    def runnable_up_hosts(self, task_type: str) -> list:
        """Hosts that are up, ACTIVE members, and have the executable.

        The intersection the host-selection algorithm iterates over,
        by linear scan in registration order: what the baselines and the
        chaos I16 audit read, and the definition
        :class:`~repro.repository.host_index.HostIndex` (host selection's
        name-sorted form) is tested against.  Non-ACTIVE
        membership states (joining, draining, rejoining) are excluded,
        so a draining host stops attracting placements the instant its
        transition is recorded.
        """
        return [
            record
            for record in self.resources.up_hosts()
            if record.state == MembershipState.ACTIVE
            and self.constraints.is_runnable(task_type, record.name)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SiteRepository({self.site_name!r}, hosts={len(self.resources)}, "
            f"tasks={len(self.task_perf)}, users={len(self.users)})"
        )

"""Sites and groups: the administrative units of VDCE.

The paper organises each site as a VDCE Server machine plus resources
partitioned into *groups*, each with a group-leader machine running a
Group Manager and per-host Monitor daemons (§4.1, Fig. 4).  This module
provides the passive structure (which hosts belong where); the active
management processes live in :mod:`repro.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.host import Host, HostSpec
from repro.sim.kernel import SimulationError, Simulator

__all__ = ["Group", "GroupSpec", "Site", "SiteSpec"]


@dataclass(frozen=True)
class GroupSpec:
    """A group of hosts headed by a leader machine."""

    name: str
    leader: str
    hosts: tuple[HostSpec, ...]

    def __post_init__(self) -> None:
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError(f"group {self.name!r}: duplicate host names")
        if self.leader not in names:
            raise ValueError(
                f"group {self.name!r}: leader {self.leader!r} is not a member host"
            )


@dataclass(frozen=True)
class SiteSpec:
    """Static description of one VDCE site."""

    name: str
    groups: tuple[GroupSpec, ...]
    #: the VDCE Server machine of the site (runs Site Manager + scheduler)
    server: str = ""

    def __post_init__(self) -> None:
        all_names: list[str] = []
        for g in self.groups:
            all_names.extend(h.name for h in g.hosts)
        if len(set(all_names)) != len(all_names):
            raise ValueError(f"site {self.name!r}: duplicate host names across groups")
        if self.server and self.server not in all_names:
            raise ValueError(
                f"site {self.name!r}: server {self.server!r} is not a site host"
            )

    @property
    def server_name(self) -> str:
        if self.server:
            return self.server
        return self.groups[0].hosts[0].name


class Group:
    """Instantiated group: leader host + member :class:`Host` objects."""

    def __init__(self, sim: Simulator, spec: GroupSpec, site_name: str):
        self.sim = sim
        self.spec = spec
        self.site_name = site_name
        self.hosts: Dict[str, Host] = {
            h.name: Host(sim, h, site_name=site_name) for h in spec.hosts
        }

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def leader(self) -> Host:
        return self.hosts[self.spec.leader]

    # -- elastic membership (the instance roster may drift from the
    # -- frozen spec once hosts join or leave at runtime) -------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise SimulationError(
                f"group {self.name!r} already has host {host.name!r}"
            )
        self.hosts[host.name] = host
        return host

    def remove_host(self, name: str) -> Host:
        if name == self.spec.leader:
            raise SimulationError(
                f"group {self.name!r}: cannot remove leader {name!r}"
            )
        try:
            return self.hosts.pop(name)
        except KeyError:
            raise SimulationError(
                f"group {self.name!r} has no host {name!r}"
            ) from None

    def __iter__(self):
        # Snapshot: callers iterate across yields (the Group Manager's
        # echo loop), and membership changes may mutate the roster
        # mid-round.
        return iter(list(self.hosts.values()))

    def __len__(self) -> int:
        return len(self.hosts)


class Site:
    """Instantiated site: groups of live hosts plus lookup helpers."""

    def __init__(self, sim: Simulator, spec: SiteSpec):
        if not spec.groups:
            raise SimulationError(f"site {spec.name!r} has no groups")
        self.sim = sim
        self.spec = spec
        self.groups: Dict[str, Group] = {
            g.name: Group(sim, g, spec.name) for g in spec.groups
        }
        self._hosts: Dict[str, Host] = {}
        for group in self.groups.values():
            self._hosts.update(group.hosts)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def server_host(self) -> Host:
        return self._hosts[self.spec.server_name]

    @property
    def hosts(self) -> Dict[str, Host]:
        return dict(self._hosts)

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise SimulationError(
                f"site {self.name!r} has no host {name!r}"
            ) from None

    def group_of(self, host_name: str) -> Group:
        for group in self.groups.values():
            if host_name in group.hosts:
                return group
        raise SimulationError(f"site {self.name!r} has no host {host_name!r}")

    # -- elastic membership --------------------------------------------------

    def add_host(self, group_name: str, host: Host) -> Host:
        """Attach a live host to one of this site's groups at runtime."""
        try:
            group = self.groups[group_name]
        except KeyError:
            raise SimulationError(
                f"site {self.name!r} has no group {group_name!r}"
            ) from None
        if host.name in self._hosts:
            raise SimulationError(
                f"site {self.name!r} already has host {host.name!r}"
            )
        group.add_host(host)
        self._hosts[host.name] = host
        return host

    def remove_host(self, name: str) -> Host:
        """Detach a host from the site (and its group) at runtime."""
        if name == self.spec.server_name:
            raise SimulationError(
                f"site {self.name!r}: cannot remove the VDCE server host "
                f"{name!r}"
            )
        group = self.group_of(name)  # raises for unknown hosts
        group.remove_host(name)
        return self._hosts.pop(name)

    def up_hosts(self) -> List[Host]:
        return [h for h in self._hosts.values() if h.is_up()]

    def __iter__(self):
        return iter(self._hosts.values())

    def __len__(self) -> int:
        return len(self._hosts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site({self.name!r}, hosts={len(self._hosts)})"


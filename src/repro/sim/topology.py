"""Topology: a whole VDCE deployment — sites, hosts and the network.

A :class:`Topology` bundles the :class:`~repro.sim.kernel.Simulator`,
all :class:`~repro.sim.site.Site` objects and the
:class:`~repro.sim.network.Network` so that schedulers, runtimes and
experiments share one coherent world.  :class:`TopologyBuilder` offers
a fluent construction API and is the one place a site's hosts are
partitioned into groups; :func:`star_topology` builds the
k-nearest-site experiment fixture.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.host import Host, HostSpec
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.network import LinkSpec, Network
from repro.sim.site import GroupSpec, Site, SiteSpec

__all__ = ["Topology", "TopologyBuilder", "star_topology"]


class Topology:
    """All sites plus the network that joins them."""

    def __init__(self, sim: Simulator, sites: Sequence[Site], network: Network):
        self.sim = sim
        self.sites: Dict[str, Site] = {}
        for site in sites:
            if site.name in self.sites:
                raise SimulationError(f"duplicate site name {site.name!r}")
            self.sites[site.name] = site
        self.network = network
        self._host_index: Dict[str, Host] = {}
        for site in sites:
            for host in site:
                if host.name in self._host_index:
                    raise SimulationError(f"duplicate host name {host.name!r}")
                self._host_index[host.name] = host
                network.register_host(host.name, site.name)

    # -- lookup -----------------------------------------------------------

    def site(self, name: str) -> Site:
        try:
            return self.sites[name]
        except KeyError:
            raise SimulationError(f"unknown site {name!r}") from None

    def host(self, name: str) -> Host:
        try:
            return self._host_index[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def site_of_host(self, host_name: str) -> Site:
        return self.site(self.network.site_of(host_name))

    @property
    def all_hosts(self) -> List[Host]:
        return list(self._host_index.values())

    # -- elastic membership --------------------------------------------------

    def attach_host(self, site_name: str, group_name: str, spec: HostSpec) -> Host:
        """Instantiate a new host and wire it into a site's group.

        The network keeps a host's name -> site mapping forever (late
        messages must still route), so a rejoining host must come back
        at the site it departed from.
        """
        if spec.name in self._host_index:
            raise SimulationError(f"duplicate host name {spec.name!r}")
        site = self.site(site_name)
        if self.network.has_host(spec.name):
            known = self.network.site_of(spec.name)
            if known != site_name:
                raise SimulationError(
                    f"host {spec.name!r} previously lived at site {known!r}; "
                    f"it cannot rejoin at {site_name!r}"
                )
        else:
            self.network.register_host(spec.name, site_name)
        host = Host(self.sim, spec, site_name=site_name)
        site.add_host(group_name, host)
        self._host_index[spec.name] = host
        return host

    def detach_host(self, host_name: str) -> Host:
        """Remove a host from its site; the network mapping survives."""
        host = self.host(host_name)  # raises for unknown hosts
        self.site(host.site_name).remove_host(host_name)
        del self._host_index[host_name]
        return host

    @property
    def site_names(self) -> List[str]:
        return list(self.sites.keys())

    def neighbor_sites(self, origin: str, k: Optional[int] = None) -> List[str]:
        """The ``k`` nearest remote sites of ``origin``, by WAN latency.

        This realises step 2 of the site scheduler algorithm (Fig. 2):
        "Select k nearest VDCE neighbor sites".  Distance is the WAN
        link latency recorded in the network (the repository's network
        attributes); ties break on site name for determinism.
        """
        origin_site = self.site(origin)  # validates
        del origin_site
        others = [s for s in self.sites if s != origin]
        others.sort(
            key=lambda s: (self.network.wan_link(origin, s).spec.latency_s, s)
        )
        if k is None:
            return others
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return others[:k]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(sites={list(self.sites)}, hosts={len(self._host_index)})"


class TopologyBuilder:
    """Fluent builder for multi-site deployments.

    Example::

        topo = (TopologyBuilder(seed=7)
                .lan_defaults(latency_s=1e-3, bandwidth_mbps=12.0)
                .wan_defaults(latency_s=0.04, bandwidth_mbps=1.5)
                .site("syr", hosts=[("grad1", 1.0, 128), ("grad2", 2.0, 256)])
                .site("cs", n_hosts=4, speed=1.5)
                .wan("syr", "cs", latency_s=0.02, bandwidth_mbps=2.0)
                .build())
    """

    def __init__(self, seed: int = 0):
        self.sim = Simulator(seed=seed)
        self._site_specs: List[SiteSpec] = []
        self._wan_overrides: List[Tuple[str, str, LinkSpec]] = []
        self._default_lan = LinkSpec(latency_s=0.0005, bandwidth_mbps=10.0, name="lan")
        self._default_wan = LinkSpec(latency_s=0.05, bandwidth_mbps=1.0, name="wan")

    def lan_defaults(self, latency_s: float, bandwidth_mbps: float) -> "TopologyBuilder":
        self._default_lan = LinkSpec(latency_s, bandwidth_mbps, "lan")
        return self

    def wan_defaults(self, latency_s: float, bandwidth_mbps: float) -> "TopologyBuilder":
        self._default_wan = LinkSpec(latency_s, bandwidth_mbps, "wan")
        return self

    def site(
        self,
        name: str,
        hosts: Optional[Iterable] = None,
        n_hosts: int = 0,
        speed: float = 1.0,
        memory_mb: int = 256,
        group_size: int = 0,
    ) -> "TopologyBuilder":
        """Add a site, either from explicit hosts — ``(name, speed,
        memory)`` tuples or full :class:`HostSpec` objects — or as
        ``n_hosts`` uniform machines."""
        if hosts is not None:
            specs = [
                h if isinstance(h, HostSpec)
                else HostSpec(name=h[0], speed=h[1], memory_mb=h[2])
                for h in hosts
            ]
        elif n_hosts > 0:
            specs = [
                HostSpec(name=f"{name}-h{i:02d}", speed=speed, memory_mb=memory_mb)
                for i in range(n_hosts)
            ]
        else:
            raise ValueError(f"site {name!r}: provide hosts or n_hosts")
        # groups of ``group_size`` in host order, each led by its first
        size = group_size or len(specs)
        groups = tuple(
            GroupSpec(name=f"{name}-g{gi // size}", leader=specs[gi].name,
                      hosts=tuple(specs[gi:gi + size]))
            for gi in range(0, len(specs), size)
        )
        self._site_specs.append(SiteSpec(name=name, groups=groups))
        return self

    def wan(self, site_a: str, site_b: str, latency_s: float,
            bandwidth_mbps: float) -> "TopologyBuilder":
        self._wan_overrides.append(
            (site_a, site_b, LinkSpec(latency_s, bandwidth_mbps, "wan"))
        )
        return self

    def build(self) -> Topology:
        if not self._site_specs:
            raise SimulationError("topology has no sites")
        network = Network(self.sim, default_lan=self._default_lan,
                          default_wan=self._default_wan)
        sites = [Site(self.sim, spec) for spec in self._site_specs]
        topo = Topology(self.sim, sites, network)
        for a, b, spec in self._wan_overrides:
            network.set_wan(a, b, spec)
        return topo


def star_topology(
    seed: int = 0,
    n_sites: int = 4,
    hosts_per_site: int = 4,
    speeds: Sequence[float] = (1.0, 1.5, 2.0, 2.5),
    hub_latency_s: float = 0.03,
    far_latency_s: float = 0.12,
    wan_bandwidth_mbps: float = 1.0,
) -> Topology:
    """``n_sites`` sites with WAN latency growing with site index.

    Site 0 is the "local" site; site *i*'s latency to every other site
    interpolates between ``hub_latency_s`` and ``far_latency_s``, so the
    k-nearest-neighbour selection of the site scheduler is meaningful.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    builder = TopologyBuilder(seed=seed).wan_defaults(far_latency_s, wan_bandwidth_mbps)
    names = [f"site-{i}" for i in range(n_sites)]
    for i, site_name in enumerate(names):
        hosts = [
            (f"{site_name}-h{j:02d}", float(speeds[(i + j) % len(speeds)]), 256)
            for j in range(hosts_per_site)
        ]
        builder.site(site_name, hosts=hosts)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            span = max(1, n_sites - 1)
            frac = (j - i) / span
            latency = hub_latency_s + (far_latency_s - hub_latency_s) * frac
            builder.wan(names[i], names[j], latency_s=latency,
                        bandwidth_mbps=wan_bandwidth_mbps)
    return builder.build()

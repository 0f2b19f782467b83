"""Declarative deployment configuration for the VDCE facade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import refuse_non_finite
from repro.sim.host import HostSpec
from repro.sim.network import LinkSpec
from repro.sim.topology import Topology, TopologyBuilder

__all__ = ["DeploymentSpec", "HostConfig", "SiteConfig"]


@dataclass(frozen=True)
class HostConfig:
    """One machine in a deployment spec."""

    name: str
    speed: float = 1.0
    memory_mb: int = 256
    arch: str = "sparc"
    os: str = "solaris"

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.speed <= 0:
            raise ValueError(f"host {self.name!r}: speed must be positive")
        if self.memory_mb <= 0:
            raise ValueError(f"host {self.name!r}: memory_mb must be positive")
        if not self.arch or not self.os:
            raise ValueError(f"host {self.name!r}: arch/os must be non-empty")


@dataclass(frozen=True)
class SiteConfig:
    """One site: explicit hosts, or a uniform block."""

    name: str
    hosts: Tuple[HostConfig, ...] = ()
    n_hosts: int = 0
    speed: float = 1.0
    memory_mb: int = 256
    group_size: int = 0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not self.name:
            raise ValueError("site name must be non-empty")
        if not self.hosts and self.n_hosts <= 0:
            raise ValueError(f"site {self.name!r}: provide hosts or n_hosts")
        if self.hosts and self.n_hosts:
            raise ValueError(
                f"site {self.name!r}: hosts and n_hosts are mutually exclusive"
            )
        if self.speed <= 0:
            raise ValueError(f"site {self.name!r}: speed must be positive")


@dataclass(frozen=True)
class DeploymentSpec:
    """A whole federation: sites plus LAN/WAN parameters."""

    sites: Tuple[SiteConfig, ...]
    lan_latency_s: float = 0.0005
    lan_bandwidth_mbps: float = 10.0
    wan_latency_s: float = 0.05
    wan_bandwidth_mbps: float = 1.0
    #: per-pair WAN overrides: {(site_a, site_b): (latency_s, bandwidth_mbps)}
    wan_overrides: Tuple[Tuple[str, str, float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("deployment needs at least one site")
        names = [s.name for s in self.sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        # a LinkSpec refuses what no link may carry
        LinkSpec(self.lan_latency_s, self.lan_bandwidth_mbps, "lan")
        LinkSpec(self.wan_latency_s, self.wan_bandwidth_mbps, "wan")
        for a, b, latency, bandwidth in self.wan_overrides:
            LinkSpec(latency, bandwidth, f"wan:{a}-{b}")

    @classmethod
    def grid(cls, n_sites: int, hosts_per_site: int, seed: int = 0,
             speeds: Sequence[float] = (1.0, 1.5, 2.0, 2.5)) -> DeploymentSpec:
        """``n_sites`` sites ``site-{s}`` of ``hosts_per_site`` 256 MB hosts
        ``s{s}-h{h:02d}``, each site one group, host speeds cycling
        through ``speeds`` by ``(s + h)``; LAN 0.5 ms / 10 MB/s, WAN
        30 ms / 2 MB/s.  The pinned scenarios and the experiment
        benches run on it."""
        return cls(
            sites=tuple(
                SiteConfig(f"site-{s}", hosts=tuple(
                    HostConfig(f"s{s}-h{h:02d}",
                               speed=float(speeds[(s + h) % len(speeds)]))
                    for h in range(hosts_per_site)
                ))
                for s in range(n_sites)
            ),
            wan_latency_s=0.03, wan_bandwidth_mbps=2.0, seed=seed,
        )

    def build_topology(self) -> Topology:
        builder = (
            TopologyBuilder(seed=self.seed)
            .lan_defaults(self.lan_latency_s, self.lan_bandwidth_mbps)
            .wan_defaults(self.wan_latency_s, self.wan_bandwidth_mbps)
        )
        for site in self.sites:
            builder.site(
                site.name,
                hosts=[HostSpec(**vars(h)) for h in site.hosts] or None,
                n_hosts=site.n_hosts,
                speed=site.speed,
                memory_mb=site.memory_mb,
                group_size=site.group_size,
            )
        for a, b, latency, bandwidth in self.wan_overrides:
            builder.wan(a, b, latency_s=latency, bandwidth_mbps=bandwidth)
        return builder.build()

"""Network substrate: LAN/WAN links with latency, bandwidth and sharing.

VDCE's site scheduler charges a task placed away from its parents an
*inter-task transfer time* — "based on the network transfer time
between a site and the parent's site, and the size of the transfer"
(paper §3).  This module provides both faces of that quantity:

* :meth:`Network.transfer_time_estimate` — the analytic
  ``latency + size / bandwidth`` figure the *scheduler* uses (it only
  has database parameters, not live link state);
* :meth:`Network.transfer` — an actual simulated transfer on a
  fair-share link, which is what the *runtime* (Data Manager) incurs.
  Concurrent transfers on one link share its bandwidth equally, so the
  estimate and the realised time diverge under contention exactly as
  they would on the paper's campus network.

Intra-host moves are free bar a tiny constant; intra-site moves use the
site's LAN link; inter-site moves use the WAN link for that site pair.

Links can also *fail*: :meth:`Link.fail` takes a link down (killing any
in-flight transfer with :class:`LinkDownError`) and :meth:`Link.recover`
brings it back.  :meth:`Network.partition` expresses a WAN partition as
the set of cross-group links being down, and the per-link ``loss_prob``
knob models lossy *control-plane* messaging (read by
:mod:`repro.net.rpc`; bulk data transfers are unaffected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.fair_share import FairShareServer
from repro.sim.kernel import Signal, SimulationError, Simulator

__all__ = [
    "Link",
    "LinkDownError",
    "LinkSpec",
    "Network",
    "Transfer",
]

#: time charged for a "transfer" between two tasks on the same host
LOCAL_COPY_TIME = 1e-6


class LinkDownError(SimulationError):
    """A transfer (or message) died because its link went down."""

    def __init__(self, link_name: str, label: str = ""):
        detail = f" carrying {label!r}" if label else ""
        super().__init__(f"link {link_name!r} went down{detail}")
        self.link_name = link_name
        self.label = label


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters (what the resource-performance DB stores).

    ``bandwidth_mbps`` is megabytes per second to keep workload file
    sizes (expressed in MB, as in the paper's SIZE= properties) simple.
    """

    latency_s: float = 0.001
    bandwidth_mbps: float = 10.0
    name: str = "link"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency_s) and self.latency_s >= 0):
            raise ValueError(f"link {self.name!r}: latency must be finite and >= 0")
        if not (math.isfinite(self.bandwidth_mbps) and self.bandwidth_mbps > 0):
            raise ValueError(f"link {self.name!r}: bandwidth must be positive and finite")

    def transfer_time(self, size_mb: float) -> float:
        """Analytic un-contended transfer time for ``size_mb`` megabytes."""
        if size_mb < 0:
            raise ValueError(f"negative transfer size: {size_mb}")
        return self.latency_s + size_mb / self.bandwidth_mbps


class Transfer:
    """One in-flight transfer on a :class:`Link`; ``done`` has no value."""

    def __init__(self, link: "Link", size_mb: float, label: str):
        self.link = link
        self.size_mb = float(size_mb)
        #: megabytes still to carry
        self.remaining = float(size_mb)
        self.label = label
        self.started_at = link.sim.now
        self.finished_at: Optional[float] = None
        self.done: Signal = link.sim.signal(f"{link.spec.name}:{label}:done")
        #: payload damage drawn at completion on an armed link:
        #: None (clean) | "bitflip" | "truncation".  The simulated value
        #: itself is never mangled (the pure-evaluation oracle must
        #: hold); receivers with integrity checking enabled treat a
        #: non-None marker as a content-hash mismatch.
        self.corruption: Optional[str] = None

    @property
    def elapsed(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.link.sim.now
        return end - self.started_at


class Link(FairShareServer):
    """A shared link: concurrent transfers split bandwidth equally.

    A fair-share server over megabytes, as :class:`repro.sim.host.Host`
    is over work units.  Latency is applied up front as a fixed delay
    before the transfer joins the bandwidth-sharing phase.
    """

    #: megabytes below which a transfer is done: a millionth of a byte,
    #: under the smallest control message (hosts use a coarser residual;
    #: each is far below its unit's smallest job, neither is tuned)
    DONE_BELOW = 1e-12

    def __init__(self, sim: Simulator, spec: LinkSpec):
        super().__init__(sim)
        self.spec = spec
        self.bytes_carried_mb = 0.0
        self.transfer_count = 0
        #: liveness: a down link kills in-flight transfers and rejects new ones
        self.up = True
        self.failures = 0
        #: probability a single control-plane message on this link is lost
        #: (read by repro.net.rpc; bulk transfers are not affected)
        self.loss_prob = 0.0
        #: per-transfer payload damage probabilities (data plane).  Drawn
        #: once per completed transfer from the link's own
        #: ``corrupt:<name>`` RNG stream, and only when armed — an
        #: unarmed link draws nothing, so fault-free runs are
        #: byte-identical with or without the integrity machinery.
        self.corrupt_prob = 0.0
        self.truncate_prob = 0.0
        self.corruptions = 0
        #: ground truth for the chaos auditor: (time, label, mode)
        self.corruption_log: List[Tuple[float, str, str]] = []

    @property
    def n_active(self) -> int:
        return len(self._running)

    def per_transfer_rate(self) -> float:
        if not self._running:
            return 0.0
        return self.spec.bandwidth_mbps / len(self._running)

    _rate = per_transfer_rate

    def fail(self) -> None:
        """Take the link down, killing every in-flight transfer.

        Idempotent.  Transfers still in their latency phase die when the
        latency timer expires and finds the link down.
        """
        if not self.up:
            return
        self._settle()
        self.up = False
        self.failures += 1
        victims, self._running = self._running, []
        self._reschedule_completion()
        for t in victims:
            t.finished_at = self.sim.now
            t.done.fail(LinkDownError(self.spec.name, t.label))

    def recover(self) -> None:
        """Bring the link back up.  Idempotent."""
        if self.up:
            return
        self.up = True
        self._last_settle = self.sim.now

    def transfer(self, size_mb: float, label: str = "xfer") -> Transfer:
        """Start a transfer; its ``done`` signal fires on completion.

        On a down link — at start, or by the end of the latency phase —
        ``done`` fails with :class:`LinkDownError` instead.
        """
        if size_mb < 0:
            raise SimulationError(f"negative transfer size: {size_mb}")
        t = Transfer(self, size_mb, label)
        self.transfer_count += 1
        self.bytes_carried_mb += size_mb

        def begin_bandwidth_phase() -> None:
            if not self.up:
                t.finished_at = self.sim.now
                t.done.fail(LinkDownError(self.spec.name, t.label))
                return
            self._settle()
            if t.remaining <= 0.0:
                t.finished_at = self.sim.now
                self._maybe_corrupt(t)
                self.sim.call_at(self.sim.now, t.done.succeed)
                return
            self._running.append(t)
            self._reschedule_completion()

        if not self.up:
            # fail asynchronously so callers can always yield t.done
            def reject() -> None:
                t.finished_at = self.sim.now
                t.done.fail(LinkDownError(self.spec.name, t.label))

            self.sim.call_at(self.sim.now, reject)
            return t
        # latency phase first, then join the shared-bandwidth phase
        self.sim.call_after(self.spec.latency_s, begin_bandwidth_phase)
        return t

    def _maybe_corrupt(self, t: Transfer) -> None:
        """Draw payload damage for one completing transfer.

        One uniform per transfer, from this link's own RNG stream, only
        while armed: completion *order* on a link is deterministic, so
        the draw sequence — and with it the whole campaign — is too.
        """
        if self.corrupt_prob <= 0.0 and self.truncate_prob <= 0.0:
            return
        u = self.sim.rng(f"corrupt:{self.spec.name}").random()
        if u < self.corrupt_prob:
            t.corruption = "bitflip"
        elif u < self.corrupt_prob + self.truncate_prob:
            t.corruption = "truncation"
        else:
            return
        self.corruptions += 1
        self.corruption_log.append((self.sim.now, t.label, t.corruption))

    _on_finish = _maybe_corrupt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.spec.name!r}, active={len(self._running)})"


class Network:
    """Topology-wide link registry: per-site LANs, per-pair WAN links."""

    def __init__(self, sim: Simulator, default_lan: LinkSpec | None = None,
                 default_wan: LinkSpec | None = None):
        self.sim = sim
        self.default_lan = default_lan or LinkSpec(
            latency_s=0.0005, bandwidth_mbps=10.0, name="lan-default"
        )
        self.default_wan = default_wan or LinkSpec(
            latency_s=0.05, bandwidth_mbps=1.0, name="wan-default"
        )
        self._lans: Dict[str, Link] = {}
        self._wans: Dict[Tuple[str, str], Link] = {}
        self._host_sites: Dict[str, str] = {}
        #: (site_a, site_b) -> the ``spec.transfer_time`` of the link
        #: between them, as first resolved; dropped with any link change
        self._site_estimates: Dict[
            Tuple[str, str], Callable[[float], float]] = {}
        #: site -> partition group id while a partition is active
        self._partition_group: Dict[str, int] = {}
        #: WAN keys this partition took down (recovered on heal)
        self._partition_links: Set[Tuple[str, str]] = set()

    # -- construction ----------------------------------------------------

    def register_host(self, host_name: str, site_name: str) -> None:
        if host_name in self._host_sites:
            raise SimulationError(f"host {host_name!r} registered twice")
        self._host_sites[host_name] = site_name
        if site_name not in self._lans:
            self.set_lan(site_name, self.default_lan)

    def has_host(self, host_name: str) -> bool:
        return host_name in self._host_sites

    def set_lan(self, site_name: str, spec: LinkSpec) -> None:
        spec = LinkSpec(spec.latency_s, spec.bandwidth_mbps, f"lan:{site_name}")
        self._lans[site_name] = Link(self.sim, spec)
        self._site_estimates.clear()

    def set_wan(self, site_a: str, site_b: str, spec: LinkSpec) -> None:
        key = self._wan_key(site_a, site_b)
        spec = LinkSpec(spec.latency_s, spec.bandwidth_mbps, f"wan:{key[0]}-{key[1]}")
        self._wans[key] = Link(self.sim, spec)
        self._site_estimates.clear()

    @staticmethod
    def _wan_key(site_a: str, site_b: str) -> Tuple[str, str]:
        return (site_a, site_b) if site_a <= site_b else (site_b, site_a)

    # -- lookup ------------------------------------------------------------

    def site_of(self, host_name: str) -> str:
        try:
            return self._host_sites[host_name]
        except KeyError:
            raise SimulationError(f"unknown host {host_name!r}") from None

    def link_between(self, src_host: str, dst_host: str) -> Optional[Link]:
        """The link a transfer between two hosts rides on (None = local)."""
        if src_host == dst_host:
            return None
        site_a, site_b = self.site_of(src_host), self.site_of(dst_host)
        if site_a == site_b:
            return self._lans[site_a]
        return self.wan_link(site_a, site_b)

    def wan_link(self, site_a: str, site_b: str) -> Link:
        key = self._wan_key(site_a, site_b)
        if key not in self._wans:
            self.set_wan(site_a, site_b, self.default_wan)
            if self._crosses_partition(site_a, site_b):
                # lazily created mid-partition: it is down like its peers
                self._wans[key].fail()
                self._partition_links.add(key)
        return self._wans[key]

    def lan_link(self, site_name: str) -> Link:
        if site_name not in self._lans:
            self.set_lan(site_name, self.default_lan)
        return self._lans[site_name]

    @property
    def site_names(self) -> List[str]:
        return sorted(self._lans)

    # -- partitions -------------------------------------------------------

    def _crosses_partition(self, site_a: str, site_b: str) -> bool:
        if not self._partition_group:
            return False
        ga = self._partition_group.get(site_a)
        gb = self._partition_group.get(site_b)
        return ga != gb

    def partition(self, groups: Sequence[Sequence[str]]) -> List[Tuple[str, str]]:
        """Partition the WAN: sites in different groups cannot talk.

        Every registered site must appear in exactly one group.  Takes
        down each WAN link crossing a group boundary (killing in-flight
        transfers) and remembers which, so :meth:`heal_partition`
        restores exactly those — a link downed independently stays down.
        Returns the downed ``(site_a, site_b)`` keys.
        """
        if self._partition_group:
            raise SimulationError("a partition is already active")
        assignment: Dict[str, int] = {}
        for gid, group in enumerate(groups):
            for site in group:
                if site not in self._lans:
                    raise SimulationError(f"unknown site {site!r}")
                if site in assignment:
                    raise SimulationError(f"site {site!r} in two groups")
                assignment[site] = gid
        missing = [s for s in self.site_names if s not in assignment]
        if missing:
            raise SimulationError(f"sites not assigned to a group: {missing}")
        self._partition_group = assignment
        downed: List[Tuple[str, str]] = []
        sites = self.site_names
        for i, site_a in enumerate(sites):
            for site_b in sites[i + 1:]:
                if assignment[site_a] == assignment[site_b]:
                    continue
                key = self._wan_key(site_a, site_b)
                if key not in self._wans:
                    self.set_wan(site_a, site_b, self.default_wan)
                link = self._wans[key]
                if link.up:
                    link.fail()
                    self._partition_links.add(key)
                    downed.append(key)
        return downed

    def heal_partition(self) -> List[Tuple[str, str]]:
        """End the active partition, recovering the links it took down."""
        healed = sorted(self._partition_links)
        for key in healed:
            self._wans[key].recover()
        self._partition_links.clear()
        self._partition_group.clear()
        return healed

    @property
    def partitioned(self) -> bool:
        return bool(self._partition_group)

    def reachable(self, site_a: str, site_b: str) -> bool:
        """Can control traffic flow between two sites right now?"""
        if site_a == site_b:
            return self.lan_link(site_a).up
        return self.wan_link(site_a, site_b).up

    # -- control-message quality knobs ------------------------------------

    def set_message_loss(self, prob: float, site_a: Optional[str] = None,
                         site_b: Optional[str] = None) -> None:
        """Set control-message loss probability on WAN links.

        With both sites given, targets that pair's link; with neither,
        applies to every WAN link of the (full-mesh) federation.
        """
        if not (0.0 <= prob < 1.0):
            raise SimulationError("loss probability must be in [0, 1)")
        for link in self._select_wans(site_a, site_b):
            link.loss_prob = prob

    def _select_wans(self, site_a: Optional[str], site_b: Optional[str]) -> List[Link]:
        if (site_a is None) != (site_b is None):
            raise SimulationError("give both sites or neither")
        if site_a is not None:
            return [self.wan_link(site_a, site_b)]
        sites = self.site_names
        return [
            self.wan_link(a, b)
            for i, a in enumerate(sites)
            for b in sites[i + 1:]
        ]

    # -- use ------------------------------------------------------------------

    def transfer_time_estimate(self, src_host: str, dst_host: str, size_mb: float) -> float:
        """Scheduler-facing analytic transfer time (no contention)."""
        link = self.link_between(src_host, dst_host)
        if link is None:
            return LOCAL_COPY_TIME
        return link.spec.transfer_time(size_mb)

    def site_transfer_time_estimate(self, site_a: str, site_b: str, size_mb: float) -> float:
        """Site-granularity estimate used by the site scheduler (Fig. 2)."""
        return self.site_transfer_estimator(site_a, site_b)(size_mb)

    def site_transfer_estimator(self, site_a: str, site_b: str) -> Callable[[float], float]:
        """:meth:`site_transfer_time_estimate` of one site pair, ``size_mb -> seconds``."""
        estimate = self._site_estimates.get((site_a, site_b))
        if estimate is None:
            # the first call for a pair goes through the link look-up,
            # which creates a missing link (down, inside a partition)
            link = (self.lan_link(site_a) if site_a == site_b
                    else self.wan_link(site_a, site_b))
            estimate = self._site_estimates[site_a, site_b] = (
                link.spec.transfer_time)
        return estimate

    def transfer(self, src_host: str, dst_host: str, size_mb: float,
                 label: str = "xfer") -> Transfer:
        """Run a real (simulated, contention-aware) transfer."""
        link = self.link_between(src_host, dst_host)
        if link is None:
            # local move: complete after the constant copy time
            t = Transfer(_LocalLink(self.sim), size_mb, label)
            t.remaining = 0.0

            def finish() -> None:
                t.finished_at = self.sim.now
                t.done.succeed()

            self.sim.call_after(LOCAL_COPY_TIME, finish)
            return t
        return link.transfer(size_mb, label=label)


class _LocalLink:
    """Stand-in link object for same-host transfers."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.spec = LinkSpec(latency_s=0.0, bandwidth_mbps=1e9, name="local")

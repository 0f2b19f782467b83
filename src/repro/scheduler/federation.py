"""FederationView: what a scheduler is allowed to see.

The paper's scheduler reads exactly four things: its own site
repository, the host-selection information of the k nearest remote
sites (reached via the AFG multicast), the network attributes between
sites, and the AFG itself.  This class packages the first three so
schedulers stay pure functions.  A remote site's information is either
its repository (the pure entry point: a caller that holds every
repository asks them directly) or the :class:`~repro.scheduler.
host_selection.SiteBid` it sent back — the runtime layer does the
message passing and builds the view of what answered
(:meth:`FederationView.answered`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional

#: (site_a, site_b, size_mb) -> seconds
TransferEstimator = Callable[[str, str, float], float]

from repro.repository.store import SiteRepository
from repro.scheduler.host_selection import (
    ArchOsOf,
    BidSheet,
    SiteBid,
    bid_sheet,
)
from repro.scheduler.prediction import PredictionModel
from repro.sim.topology import Topology

__all__ = ["FederationView", "TransferRow"]


@dataclass
class FederationView:
    """Read-only federation snapshot for one scheduling decision.

    ``neighbor_order`` lists remote sites from nearest to farthest (the
    paper's "k nearest VDCE neighbor sites" are its first k entries).
    ``site_transfer_time(site_a, site_b, size_mb)`` estimates inter-site
    transfer times from the repository's network attributes (per pair,
    as ``size_mb -> seconds``: ``site_transfer_estimator``, if given).
    """

    local_site: str
    repositories: Dict[str, SiteRepository]
    neighbor_order: List[str]
    site_transfer_time: TransferEstimator
    #: remote sites known by the bid they returned (Fig. 2 step 5)
    #: instead of a repository
    bids: Dict[str, SiteBid] = field(default_factory=dict)
    site_transfer_estimator: Optional[Callable[[str, str], Callable[[float], float]]] = None

    def __post_init__(self) -> None:
        if self.local_site not in self.repositories:
            raise ValueError(
                f"local site {self.local_site!r} has no repository"
            )
        for name in self.neighbor_order:
            if name not in self.repositories and name not in self.bids:
                raise ValueError(
                    f"neighbor {name!r} has no repository and sent no bid"
                )
            if name == self.local_site:
                raise ValueError("local site cannot be its own neighbor")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        repositories: Mapping[str, SiteRepository],
        local_site: str,
    ) -> "FederationView":
        """Build a view over a simulated deployment."""
        missing = [s for s in topology.site_names if s not in repositories]
        if missing:
            raise ValueError(f"sites without repositories: {missing}")
        return cls(
            local_site=local_site,
            repositories=dict(repositories),
            neighbor_order=topology.neighbor_sites(local_site),
            site_transfer_time=topology.network.site_transfer_time_estimate,
            site_transfer_estimator=topology.network.site_transfer_estimator,
        )

    # -- queries --------------------------------------------------------------

    def local_repository(self) -> SiteRepository:
        return self.repositories[self.local_site]

    def repository(self, site: str) -> SiteRepository:
        try:
            return self.repositories[site]
        except KeyError:
            raise KeyError(f"no repository for site {site!r}") from None

    def bid_sheet(
        self, site: str, task_type: str, model: PredictionModel
    ) -> Optional[BidSheet]:
        """Figure 3 steps 1-2 of ``site`` for ``task_type``: from the
        bid it returned (built for the model the request named), else
        from its repository as of this call.  ``None`` = it declines."""
        bid = self.bids.get(site)
        if bid is not None:
            return bid.sheets.get(task_type)
        return bid_sheet(self.repository(site), task_type, model)

    def arch_os_of(self, site: str) -> ArchOsOf:
        """``host -> (arch, os)`` for the hosts of ``site``'s sheets."""
        bid = self.bids.get(site)
        if bid is not None:
            return bid.host_attrs.__getitem__
        return self.repository(site).resources.arch_os

    def restricted(self, responsive: "set[str] | frozenset[str]") -> "FederationView":
        """A copy whose neighbours are limited to ``responsive`` sites
        (the runtime drops crashed sites before the multicast)."""
        return FederationView(
            local_site=self.local_site,
            repositories=self.repositories,
            neighbor_order=[s for s in self.neighbor_order if s in responsive],
            site_transfer_time=self.site_transfer_time,
            bids=self.bids,
            site_transfer_estimator=self.site_transfer_estimator,
        )

    def answered(self, replies: Iterable[SiteBid]) -> "FederationView":
        """The view of what answered the AFG multicast: the local
        repository plus the returned bids, and no remote repository.

        Scheduling proceeds over whoever answered within the bid
        deadline (the local site always participates), degrading to
        local-only under a full partition.
        """
        bids = {bid.site: bid for bid in replies}
        return FederationView(
            local_site=self.local_site,
            repositories={self.local_site: self.local_repository()},
            neighbor_order=[s for s in self.neighbor_order if s in bids],
            site_transfer_time=self.site_transfer_time,
            bids=bids,
            site_transfer_estimator=self.site_transfer_estimator,
        )

    def remote_sites(self, k: Optional[int] = None) -> List[str]:
        """The k nearest remote sites (Fig. 2 step 2); all if k is None."""
        if k is None:
            return list(self.neighbor_order)
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.neighbor_order[:k]

    def participating_sites(self, k: Optional[int] = None) -> List[str]:
        """Local site + the selected remote sites, local first."""
        return [self.local_site] + self.remote_sites(k)


class TransferRow(dict):
    """source site -> ``size_mb -> seconds`` into ``site``, each answer
    of ``view.site_transfer_time`` resolved for its pair on first use:
    a round keeps one row per bidder, one look-up per (source, bidder)."""

    def __init__(self, view: FederationView, site: str):
        super().__init__()
        self._view, self._site = view, site

    def __missing__(self, source: str) -> Callable[[float], float]:
        view, site = self._view, self._site
        estimate = self[source] = (
            partial(view.site_transfer_time, source, site)
            if view.site_transfer_estimator is None
            else view.site_transfer_estimator(source, site))
        return estimate

"""Shared fixtures for scheduler tests: a two-site federation, and a
count of the site bids a round computes."""

import pytest

from repro.repository import SiteRepository
from repro.scheduler import FederationView
from repro.sim import TopologyBuilder
from repro.tasklib import default_registry


def build_federation(
    site_hosts=None,
    wan_latency_s=0.05,
    wan_bandwidth_mbps=1.0,
    lan_latency_s=0.001,
    lan_bandwidth_mbps=10.0,
    local_site="alpha",
    seed=0,
):
    """Topology + bootstrapped repositories + FederationView.

    ``site_hosts``: {site: [(host, speed, memory_mb), ...]}.  Defaults
    to two heterogeneous sites of three hosts each.
    """
    if site_hosts is None:
        site_hosts = {
            "alpha": [("a-slow", 1.0, 256), ("a-mid", 2.0, 256), ("a-fast", 4.0, 256)],
            "beta": [("b-slow", 1.0, 256), ("b-mid", 2.0, 256), ("b-fast", 4.0, 256)],
        }
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(lan_latency_s, lan_bandwidth_mbps)
        .wan_defaults(wan_latency_s, wan_bandwidth_mbps)
    )
    for site, hosts in site_hosts.items():
        builder.site(site, hosts=hosts)
    topo = builder.build()
    repos = {
        name: SiteRepository.bootstrap(site, default_registry())
        for name, site in topo.sites.items()
    }
    view = FederationView.from_topology(topo, repos, local_site=local_site)
    return topo, repos, view


@pytest.fixture
def federation():
    return build_federation()


class _LoggedRows(list):
    """A bid sheet's rows that log ``site`` on every pass over them."""

    def __init__(self, rows, site, log):
        super().__init__(rows)
        self._site, self._log = site, log

    def __iter__(self):
        self._log.append(self._site)
        return super().__iter__()


def log_site_bids(monkeypatch):
    """The list of sites, one entry per site bid a Fig. 2 round computes
    (its memo missed).  Every sheet ``FederationView`` hands out logs a
    pass over its rows; with no preference and no health hook selecting
    rows, the row loop is the one pass a computed bid makes."""
    log = []
    bid_sheet = FederationView.bid_sheet

    def logged(self, site, task_type, model):
        sheet = bid_sheet(self, site, task_type, model)
        if sheet is None:
            return None
        return sheet[0], _LoggedRows(sheet[1], site, log)

    monkeypatch.setattr(FederationView, "bid_sheet", logged)
    return log

"""Predict calls and row-table builds: the host-selection count gate.

A bid is evaluated by the row kernel from cached host rows:
``PredictionModel.predict`` is never called, and the
rows are built once per (site, version key, model, task type) — a pure
placement writes nothing to the repositories, so that is once per
(site, task type), whatever the size of the DAG.  Exact counts, so a
change that quietly falls back to per-pair prediction (262 144 calls
per ``place_4x1k`` round before the kernel) or rebuilds rows per bid
fails here instead of in a bench run.

Within a round a site answers an identical task from its memo until a
placement commits to it (DESIGN §13.10): a bag of identical tasks costs
one site bid (a memo miss: a pass of the kernel's row loop over the
site's sheet) per site for its first task and one per task after it
(the site the previous task went to), where a bag whose scales never
repeat, or a DAG past its entry wave, is bid at every site per task.
"""

import pytest

from repro.repository import SiteRepository
from repro.scheduler import FederationView, SiteScheduler
from repro.scheduler.prediction import PredictionModel
from repro.sim import TopologyBuilder
from repro.tasklib import default_registry
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag
from tests.scheduler.conftest import log_site_bids

N_SITES, HOSTS_PER_SITE = 2, 4


def federation():
    """2 sites x 4 hosts: (repositories by site, view from ``site-0``)."""
    speeds = (1.0, 1.5, 2.0, 2.5)
    builder = (
        TopologyBuilder(seed=0)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(N_SITES):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h}", speeds[(s + h) % len(speeds)], 256)
            for h in range(HOSTS_PER_SITE)
        ])
    topo = builder.build()
    repos = {
        name: SiteRepository.bootstrap(site, default_registry())
        for name, site in topo.sites.items()
    }
    view = FederationView.from_topology(topo, repos, local_site="site-0")
    return repos, view


def layered_dag(n_tasks: int):
    return random_dag(RandomDAGConfig(
        n_tasks=n_tasks, width=16, mean_cost=3.0, ccr=0.3, seed=7))


def place(n_tasks: int, monkeypatch):
    """Place one layered random DAG on the federation; returns
    (predict calls, row-table builds, distinct task types)."""
    repos, view = federation()
    afg = layered_dag(n_tasks)

    calls = []
    reference = PredictionModel.predict
    monkeypatch.setattr(
        PredictionModel, "predict",
        lambda self, *a, **kw: calls.append(1) or reference(self, *a, **kw))
    table = SiteScheduler(k=N_SITES - 1).schedule(afg, view)
    assert len(table) == n_tasks
    builds = sum(repo.host_index.builds for repo in repos.values())
    return len(calls), builds, len({t.task_type for t in afg})


@pytest.mark.parametrize("n_tasks", [256, 1024])
def test_kernel_never_calls_predict_and_builds_rows_once(n_tasks, monkeypatch):
    predict_calls, builds, task_types = place(n_tasks, monkeypatch)
    assert predict_calls == 0
    assert builds == N_SITES * task_types


@pytest.mark.parametrize("afg, calls", [
    # identical tasks: each placement invalidates one site's bid
    (lambda: bag_of_tasks(512, cost=4.0), 512 + N_SITES - 1),
    # no two tasks alike: nothing to reuse
    (lambda: bag_of_tasks(512, cost=4.0, heterogeneity=0.5), 512 * N_SITES),
    (lambda: layered_dag(256), 256 * N_SITES),
], ids=["bag-identical", "bag-heterogeneous", "dag"])
def test_row_kernel_calls_follow_what_changes(afg, calls, monkeypatch):
    _repos, view = federation()
    afg = afg()
    made = log_site_bids(monkeypatch)
    table = SiteScheduler(k=N_SITES - 1).schedule(afg, view)
    assert len(table) == len(afg)
    assert len(made) == calls

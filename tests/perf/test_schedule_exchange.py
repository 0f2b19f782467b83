"""The Fig. 2 exchange carries bid sheets: count and equivalence gates.

Paper Fig. 2 steps 3-5: the local site multicasts, each remote site
*returns* its host-selection information, and the local site assigns
from what came back.  Machine-independent checks that it stays so:

(a) one path — during ``schedule_process`` Fig. 3 does not run as a
    whole-AFG pass at any remote site (``select_hosts`` is called 0
    times), and the local pass reads no remote ``SiteRepository``;
(b) the ladder — what crosses the wire is sized by task *types*, so a
    bag of 8 192 tasks exchanges the same bytes as one of 512, times
    nothing out, uses the same sites and costs the same makespan per
    task (at the parent the 8 192-task request took 2 s on the wire
    against a 1 s timeout: every exchange timed out, one site did all
    the work);
(c) equivalence — a view built from the replies at time t places every
    task exactly as the view reading the repositories at t does.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repository import SiteRepository
from repro.runtime import site_manager
from repro.scheduler import (
    FederationView,
    PredictionModel,
    SiteScheduler,
    host_selection,
)
from repro.scheduler.host_selection import site_bid
from repro.scheduler.site_scheduler import SchedulingError
from repro.sim import TopologyBuilder
from repro.sim.host import HostSpec
from repro.tasklib import TaskRegistry, default_registry
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer
from tests.perf.test_events_per_task import run_bag
from tests.runtime.conftest import build_runtime, chain_afg
from tests.scheduler.test_commitment_ledger import dags, with_parallel_tasks


# -- (a) one path ---------------------------------------------------------------

class Untouchable:
    """Stands in for a remote site's repository in the local site's
    view: any read of it is the local pass reaching across the wire."""

    def __init__(self, site):
        self.__dict__["site"] = site

    def __getattr__(self, name):
        raise AssertionError(
            f"the local pass read {name!r} of remote repository "
            f"{self.__dict__['site']!r}"
        )


def test_the_round_runs_no_remote_fig3_pass_and_reads_no_remote_repository(
        monkeypatch):
    rt = build_runtime(site_hosts={
        "alpha": [("a1", 1.0, 256), ("a2", 1.0, 256)],
        "beta": [("b1", 2.0, 256), ("b2", 2.0, 256)],
        "gamma": [("g1", 3.0, 256), ("g2", 3.0, 256)],
    })
    calls = []
    for module in (host_selection, site_manager):  # bound by name in both
        monkeypatch.setattr(
            module, "select_hosts", lambda *a, **kw: calls.append(a))
    federation_view = rt.federation_view

    def view_without_remote_repositories(local_site=None):
        view = federation_view(local_site)
        view.repositories = {
            site: repo if site == view.local_site else Untouchable(site)
            for site, repo in view.repositories.items()
        }
        return view

    monkeypatch.setattr(rt, "federation_view", view_without_remote_repositories)
    afg = chain_afg(n=4, scale=5.0)

    def run():
        return (yield from rt.schedule_process(afg, SiteScheduler(k=2)))

    table, _ = rt.sim.run_until_complete(rt.sim.process(run()))
    assert calls == []
    assert table.is_complete_for(afg)
    assert rt.stats.sites_bid[afg.name] == 3
    # the remote sheets were used, not just carried
    assert "gamma" in table.sites_used()


# -- (b) the ladder -------------------------------------------------------------

def exchange(rt):
    """(request MB, reply rows) of every scheduling message of a run."""
    return [
        event.data["size_mb"] if event.kind == EventKind.AFG_MULTICAST
        else event.data["rows"]
        for event in rt.tracer.events()
        if event.kind in (EventKind.AFG_MULTICAST, EventKind.BID_REPLY)
    ]


def test_the_exchange_does_not_grow_with_the_bag():
    small, large = run_bag(512, Tracer()), run_bag(8192, Tracer())
    for rt in (small, large):
        assert rt.stats.rpc_timeouts == rt.stats.rpc_retries == 0
        kinds = Counter(event.kind for event in rt.tracer.events())
        assert not kinds[EventKind.SITE_UNREACHABLE]
    assert exchange(small) == exchange(large) != []
    assert (list(small.stats.sites_used.values())
            == list(large.stats.sites_used.values()) == [2])
    per_task = small.sim.now / 512, large.sim.now / 8192
    assert per_task[1] == pytest.approx(per_task[0], rel=0.05)


# -- (c) equivalence --------------------------------------------------------------

def mixed_federation():
    """Three sites of three hosts, two architectures in each; the
    farthest site's task-performance DB lacks ``generic.merge``."""
    builder = (
        TopologyBuilder(seed=0)
        .lan_defaults(0.001, 10.0)
        .wan_defaults(0.05, 1.0)
    )
    for s, site in enumerate(("alpha", "beta", "gamma")):
        builder.site(site, hosts=[
            HostSpec(name=f"{site[0]}{h}", speed=1.0 + (s + h) % 3,
                     arch=("sparc", "x86")[(s + h) % 2],
                     os=("solaris", "linux")[(s + h) % 2])
            for h in range(3)
        ])
    topo = builder.build()
    without_merge = TaskRegistry()
    without_merge.register_all(
        default_registry().get(name) for name in default_registry().names()
        if name != "generic.merge"
    )
    repos = {
        name: SiteRepository.bootstrap(
            site, without_merge if name == "gamma" else default_registry())
        for name, site in topo.sites.items()
    }
    return repos, FederationView.from_topology(topo, repos, "alpha")


@given(dags, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_a_view_of_the_replies_places_like_the_view_of_the_repositories(
        afg, parallel, preferring, data):
    afg = with_parallel_tasks(afg, parallel)
    if preferring:
        for node in list(afg)[::preferring]:
            afg.replace_task(node.with_properties(
                preferred_machine_type=data.draw(
                    st.sampled_from(("x86", "SUN solaris", "linux")))))
    repos, by_repository = mixed_federation()
    hosts = sorted(h for repo in repos.values()
                   for h in repo.resources.host_names())
    for host in data.draw(st.lists(st.sampled_from(hosts), max_size=4)):
        repo = next(r for r in repos.values() if r.resources.has_host(host))
        repo.resources.update_workload(
            host, load=data.draw(st.floats(min_value=0.0, max_value=6.0)),
            available_memory_mb=128, time=1.0)
    # each host's health: a penalty, or None = quarantined
    health = {
        host: data.draw(st.none() | st.floats(min_value=1.0, max_value=4.0))
        for host in data.draw(st.lists(st.sampled_from(hosts), max_size=3))
    }
    health_of = (lambda host: health.get(host, 1.0)) if health else None
    model = PredictionModel()
    scheduler = SiteScheduler(k=2, model=model)
    task_types = sorted({task.task_type for task in afg})
    by_reply = by_repository.answered(
        site_bid(repos[site], task_types, model)
        for site in by_repository.remote_sites()
    )
    assert list(by_reply.repositories) == ["alpha"]

    def table(view):
        try:
            placed = scheduler.schedule(afg, view, health_of=health_of)
        except SchedulingError as exc:  # infeasible for both, or neither
            return str(exc)
        return [(a.task_id, a.site, a.hosts, a.predicted_time)
                for a in placed.assignments.values()]

    assert table(by_reply) == table(by_repository)

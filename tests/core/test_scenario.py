"""One scenario, one runner: the declaration and the federation it names.

``DeploymentSpec.grid`` is the one spelling of the speed-cycling
federation; it must build the topology the hand-written builder it
replaced built, host for host and link for link.  The scenarios are part
of the package: nothing under ``src/repro`` imports ``benchmarks``.
"""

import ast
import pickle
from itertools import combinations
from pathlib import Path

import pytest

from repro.core import DeploymentSpec
from repro.core.scenario import SCENARIOS
from repro.sim import TopologyBuilder

ROOT = Path(__file__).resolve().parents[2]


def hand_written(n_sites, hosts_per_site, seed):
    """The builder every pinned scenario ran on before the constructor."""
    speeds = (1.0, 1.5, 2.0, 2.5)
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(n_sites):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h:02d}", float(speeds[(s + h) % len(speeds)]), 256)
            for h in range(hosts_per_site)
        ])
    return builder.build()


def shape(topology):
    """Hosts, speeds, memory, groups and leaders of every site, and every
    LAN and WAN link's spec."""
    sites = sorted(topology.sites)
    return (
        [topology.sites[name].spec for name in sites],
        [topology.network.lan_link(name).spec for name in sites],
        [topology.network.wan_link(a, b).spec
         for a, b in combinations(sites, 2)],
    )


@pytest.mark.gate
@pytest.mark.parametrize("n_sites, hosts_per_site", [(1, 64), (4, 4), (8, 8)])
def test_the_grid_is_the_builder_it_replaced(n_sites, hosts_per_site):
    seed = n_sites + hosts_per_site
    built = DeploymentSpec.grid(n_sites, hosts_per_site, seed=seed)
    topology = built.build_topology()
    assert shape(topology) == shape(hand_written(n_sites, hosts_per_site,
                                                 seed))
    assert topology.sim.seed == seed


@pytest.mark.gate
def test_no_module_under_src_imports_benchmarks():
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            offenders += [f"{path.relative_to(ROOT)}: {name}" for name in names
                          if name.split(".")[0] == "benchmarks"]
    assert offenders == []


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_scenario_is_a_frozen_hashable_value(name):
    scenario = SCENARIOS[name]
    copy = pickle.loads(pickle.dumps(scenario))
    assert copy == scenario and hash(copy) == hash(scenario)

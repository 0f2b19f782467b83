"""An AFG as a ``networkx`` graph: the independent oracle the level
property tests compute longest paths on."""

import networkx as nx

from repro.afg.graph import ApplicationFlowGraph


def to_networkx(afg: ApplicationFlowGraph) -> nx.DiGraph:
    """Node attributes carry the TaskNode; parallel port-pair edges
    merge into one edge carrying their summed ``size_mb``."""
    g = nx.DiGraph(name=afg.name)
    for task in afg:
        g.add_node(task.id, task=task)
    for e in afg.edges:
        weight = g.edges[e.src, e.dst]["size_mb"] if g.has_edge(e.src, e.dst) else 0.0
        g.add_edge(e.src, e.dst, size_mb=weight + e.size_mb)
    return g

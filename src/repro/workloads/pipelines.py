"""Structured AFG shapes: pipelines, fork-join, reductions, task bags.

These shapes isolate specific scheduler behaviours: a linear pipeline
stresses placement locality, fork-join stresses the level priority,
reduction trees stress fan-in transfer aggregation, and a bag of tasks
stresses pure load balancing.  All use the ``generic`` library and are
meant for shape-only execution.
"""

from __future__ import annotations

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.properties import TaskProperties
from repro.afg.task import TaskNode
from repro.pcg64 import PCG64, check_seed

__all__ = [
    "bag_of_tasks",
    "fork_join",
    "linear_pipeline",
    "reduction_tree",
]


def _source(id: str, cost: float) -> TaskNode:
    return TaskNode(id=id, task_type="generic.source", n_out_ports=1,
                    properties=TaskProperties(workload_scale=cost))


def _compute(id: str, cost: float, n_in: int = 1) -> TaskNode:
    # single-input stages use the fixed-arity compute entry; fan-in
    # stages use the variadic merge entry so graphs registry-validate
    task_type = "generic.compute" if n_in == 1 else "generic.merge"
    return TaskNode(id=id, task_type=task_type, n_in_ports=n_in,
                    n_out_ports=1,
                    properties=TaskProperties(workload_scale=cost))


def linear_pipeline(n_stages: int = 6, cost: float = 2.0,
                    edge_mb: float = 1.0) -> ApplicationFlowGraph:
    """A straight chain of ``n_stages`` equal-cost stages."""
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    afg = ApplicationFlowGraph(f"pipeline-{n_stages}")
    afg.add_task(_source("s000", cost))
    for i in range(1, n_stages):
        afg.add_task(_compute(f"s{i:03d}", cost))
        afg.connect(f"s{i-1:03d}", f"s{i:03d}", size_mb=edge_mb)
    return afg


def fork_join(width: int = 4, branch_cost: float = 2.0,
              head_cost: float = 1.0, edge_mb: float = 1.0) -> ApplicationFlowGraph:
    """head -> width parallel branches -> join."""
    if width < 1:
        raise ValueError("width must be >= 1")
    afg = ApplicationFlowGraph(f"fork-join-{width}")
    afg.add_task(_source("head", head_cost))
    afg.add_task(_compute("join", head_cost, n_in=width))
    for i in range(width):
        branch = f"b{i:03d}"
        afg.add_task(_compute(branch, branch_cost))
        afg.connect("head", branch, src_port=0, size_mb=edge_mb)
        afg.connect(branch, "join", dst_port=i, size_mb=edge_mb)
    return afg


def reduction_tree(leaves: int = 8, leaf_cost: float = 2.0,
                   inner_cost: float = 1.0, edge_mb: float = 1.0) -> ApplicationFlowGraph:
    """Binary in-tree: ``leaves`` sources reduced pairwise to one root."""
    if leaves < 2 or leaves & (leaves - 1):
        raise ValueError("leaves must be a power of two >= 2")
    afg = ApplicationFlowGraph(f"reduction-{leaves}")
    level = []
    for i in range(leaves):
        node = _source(f"leaf{i:03d}", leaf_cost)
        afg.add_task(node)
        level.append(node.id)
    depth = 0
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level), 2):
            node = _compute(f"red{depth}_{i // 2:03d}", inner_cost, n_in=2)
            afg.add_task(node)
            afg.connect(level[i], node.id, dst_port=0, size_mb=edge_mb)
            afg.connect(level[i + 1], node.id, dst_port=1, size_mb=edge_mb)
            next_level.append(node.id)
        level = next_level
        depth += 1
    return afg


def bag_of_tasks(n: int = 12, cost: float = 2.0,
                 heterogeneity: float = 0.0, seed: int = 0) -> ApplicationFlowGraph:
    """``n`` independent tasks (no edges) — pure load balancing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= heterogeneity < 1.0):
        raise ValueError("heterogeneity must be in [0, 1)")
    check_seed(seed)
    afg = ApplicationFlowGraph(f"bag-{n}")
    if heterogeneity:
        rng = PCG64(seed)
    for i in range(n):
        # homogeneous: 1.0 + 0.0 * u is 1.0 for every drawn u, so draw none
        u = rng.uniform(-1.0, 1.0) if heterogeneity else 0.0
        afg.add_task(_source(f"job{i:03d}", cost * (1.0 + heterogeneity * u)))
    return afg

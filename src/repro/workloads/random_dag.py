"""Layered random DAGs for the scheduling experiments.

The classic random-graph methodology of the list-scheduling literature
(the paper's refs [2, 4]): tasks arranged in layers, random fan-in from
earlier layers, per-task costs drawn around a mean with controllable
heterogeneity, and edge volumes set from a target communication-to-
computation ratio (CCR).

Graphs use the ``generic`` library with per-node ``workload_scale``
carrying the cost, and are meant to be executed with
``execute_payloads=False`` (shape-only): entry nodes are
``generic.source`` lookalikes and interior nodes ``generic.compute``
with as many input ports as sampled parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.properties import TaskProperties
from repro.afg.task import TaskNode
from repro.errors import refuse_non_finite
from repro.pcg64 import PCG64, check_seed

__all__ = ["RandomDAGConfig", "random_dag"]

#: most parents a non-entry task samples from the earlier layers
_MAX_FAN_IN = 3


@dataclass(frozen=True)
class RandomDAGConfig:
    """Knobs of the generator.

    ``ccr`` is the target ratio between the mean edge transfer time on a
    reference 1 MB/s link and the mean task execution time on the base
    processor: ``mean_edge_mb = ccr * mean_cost * 1 MB/s``.
    """

    n_tasks: int = 20
    width: int = 4
    #: mean task cost in base-processor seconds
    mean_cost: float = 2.0
    #: multiplicative half-range of per-task cost (0 = homogeneous)
    cost_heterogeneity: float = 0.5
    ccr: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.mean_cost <= 0:
            raise ValueError("mean_cost must be positive")
        if not (0.0 <= self.cost_heterogeneity < 1.0):
            raise ValueError("cost_heterogeneity must be in [0, 1)")
        if self.ccr < 0:
            raise ValueError("ccr must be non-negative")
        check_seed(self.seed)


def random_dag(config: RandomDAGConfig) -> ApplicationFlowGraph:
    """Generate a layered random AFG; deterministic for a given config."""
    rng = PCG64(config.seed)
    afg = ApplicationFlowGraph(
        f"random-dag-n{config.n_tasks}-w{config.width}-s{config.seed}"
    )

    # partition tasks into layers of at most `width`
    layers: List[List[str]] = []
    remaining = config.n_tasks
    index = 0
    while remaining > 0:
        layer_size = rng.integers(1, config.width + 1)
        layer_size = min(layer_size, remaining)
        layer = [f"n{index + i:03d}" for i in range(layer_size)]
        layers.append(layer)
        index += layer_size
        remaining -= layer_size

    def draw_cost() -> float:
        h = config.cost_heterogeneity
        factor = 1.0 + h * rng.uniform(-1.0, 1.0)
        return config.mean_cost * factor

    mean_edge_mb = config.ccr * config.mean_cost  # 1 MB/s reference link

    def draw_edge_mb() -> float:
        if mean_edge_mb <= 0:
            return 0.0
        return rng.uniform(0.5, 1.5) * mean_edge_mb

    # first layer: entry tasks
    for task_id in layers[0]:
        afg.add_task(
            TaskNode(
                id=task_id,
                task_type="generic.source",
                n_in_ports=0,
                n_out_ports=1,
                properties=TaskProperties(workload_scale=draw_cost()),
            )
        )

    # later layers: sample parents from any earlier layer
    earlier: List[str] = list(layers[0])
    for layer in layers[1:]:
        for task_id in layer:
            fan_in = rng.integers(1, _MAX_FAN_IN + 1)
            fan_in = min(fan_in, len(earlier))
            parent_idx = rng.choice(len(earlier), size=fan_in, replace=False)
            parents = sorted(earlier[i] for i in parent_idx)
            afg.add_task(
                TaskNode(
                    id=task_id,
                    task_type=(
                        "generic.compute" if fan_in == 1 else "generic.merge"
                    ),
                    n_in_ports=fan_in,
                    n_out_ports=1,
                    properties=TaskProperties(workload_scale=draw_cost()),
                )
            )
            for port, parent in enumerate(parents):
                afg.connect(parent, task_id, src_port=0, dst_port=port,
                            size_mb=draw_edge_mb())
        earlier.extend(layer)

    return afg

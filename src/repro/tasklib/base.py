"""Task signatures: what a library entry declares about itself.

A signature carries two independent faces:

* the *cost model* — base computation size (execution time on the
  paper's base processor), memory requirement, typical output volume —
  which is what gets loaded into the task-performance database and what
  the scheduler's performance prediction consumes (paper §3);
* the *implementation* — a pure Python callable — which is what the
  runtime actually invokes, so examples compute real answers.

Keeping them separate mirrors the paper: the scheduler never inspects
the executable, only the database parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["ParallelModel", "TaskSignature"]

#: implementation callable: (inputs, workload_scale) -> list of outputs
TaskFn = Callable[[Sequence[Any], float], List[Any]]


@dataclass(frozen=True)
class ParallelModel:
    """Speedup model for a parallel task implementation on ``m`` nodes.

    Amdahl-style: ``speedup(m) = m / (1 + overhead * (m - 1))``.  With
    ``overhead = 0`` the task is embarrassingly parallel; realistic
    library entries use small positive overheads.  The host-selection
    algorithm's parallel extension (paper §3: "For parallel tasks, the
    host selection algorithm is updated to select the number of
    machines required within the site") divides predicted time by this
    speedup.
    """

    overhead: float = 0.05

    def __post_init__(self) -> None:
        if self.overhead < 0:
            raise ValueError("parallel overhead must be non-negative")

    def speedup(self, m: int) -> float:
        if m < 1:
            raise ValueError(f"node count must be >= 1, got {m}")
        return m / (1.0 + self.overhead * (m - 1))

    def per_node_work(self, total_work: float, m: int) -> float:
        """Work each of ``m`` concurrent nodes executes.

        Every node runs for ``total_work / speedup(m)`` base-processor
        seconds, so the parallel span matches the speedup model.
        """
        return total_work / self.speedup(m)


@dataclass(frozen=True)
class TaskSignature:
    """One entry of a task library."""

    name: str
    library: str
    n_in_ports: int
    n_out_ports: int
    #: execution time on the base (speed=1.0, unloaded) processor at scale 1
    base_comp_size: float
    #: resident memory requirement in MB at scale 1
    base_memory_mb: int = 16
    #: typical output volume per out port in MB at scale 1
    comm_size_mb: float = 1.0
    #: None = sequential-only implementation
    parallel: Optional[ParallelModel] = None
    fn: Optional[TaskFn] = None
    description: str = ""
    #: variadic entries accept any number of inputs >= n_in_ports
    #: (e.g. a merge node); the AFG node's declared ports are the truth
    variadic_inputs: bool = False

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise ValueError(f"bad task name {self.name!r} (no dots, non-empty)")
        if not self.library:
            raise ValueError(f"task {self.name!r}: library must be non-empty")
        if self.n_in_ports < 0 or self.n_out_ports < 0:
            raise ValueError(f"task {self.name!r}: negative port count")
        if self.base_comp_size < 0:
            raise ValueError(f"task {self.name!r}: negative computation size")
        if self.base_memory_mb < 0:
            raise ValueError(f"task {self.name!r}: negative memory size")
        if self.comm_size_mb < 0:
            raise ValueError(f"task {self.name!r}: negative communication size")

    @property
    def qualified_name(self) -> str:
        """Registry key, e.g. ``matrix.lu_decomposition``."""
        return f"{self.library}.{self.name}"

    @property
    def parallelizable(self) -> bool:
        return self.parallel is not None

    # -- cost model -----------------------------------------------------------

    def comp_size(self, scale: float = 1.0) -> float:
        """Total computation size (base-processor seconds) at ``scale``."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return self.base_comp_size * scale

    def memory_mb(self, scale: float = 1.0) -> int:
        return max(1, int(math.ceil(self.base_memory_mb * scale)))

    def output_size_mb(self, scale: float = 1.0) -> float:
        return self.comm_size_mb * scale

    def span_work(self, scale: float, n_nodes: int) -> float:
        """Critical-path work of one execution slice on each of ``n_nodes``.

        For sequential runs this is the full computation size; for
        parallel runs it is the per-node share implied by the speedup
        model (every node executes this much, concurrently).
        """
        total = self.comp_size(scale)
        if n_nodes == 1:
            return total
        if self.parallel is None:
            raise ValueError(f"task {self.name!r} has no parallel implementation")
        return total / self.parallel.speedup(n_nodes)

    # -- execution -------------------------------------------------------------

    def run(self, inputs: Sequence[Any], scale: float = 1.0) -> List[Any]:
        """Invoke the implementation; validates arity both ways."""
        if self.fn is None:
            raise RuntimeError(f"task {self.qualified_name} has no implementation")
        if self.variadic_inputs:
            if len(inputs) < self.n_in_ports:
                raise ValueError(
                    f"task {self.qualified_name} expects at least "
                    f"{self.n_in_ports} inputs, got {len(inputs)}"
                )
        elif len(inputs) != self.n_in_ports:
            raise ValueError(
                f"task {self.qualified_name} expects {self.n_in_ports} inputs, "
                f"got {len(inputs)}"
            )
        outputs = self.fn(inputs, scale)
        if len(outputs) != self.n_out_ports:
            raise RuntimeError(
                f"task {self.qualified_name} produced {len(outputs)} outputs, "
                f"declared {self.n_out_ports}"
            )
        return list(outputs)

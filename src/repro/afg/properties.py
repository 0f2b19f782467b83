"""Task properties: the contents of the Application Editor's popup panel.

Paper §2: "A double click on any task icon generates a popup panel that
allows the user to specify (optional) preferences such as computational
mode (sequential or parallel), input/output files, machine type, and
the number of processors to be used in a parallel implementation of a
given task.  If an input of a task is supplied by its parent tasks, the
file entry is marked as dataflow."

Figure 1 shows two concrete instances (LU-Decomposition: parallel,
2 nodes, file input with SIZE=...; Matrix-Multiplication: sequential,
1 node, preferred machine type "SUN solaris", two dataflow inputs, one
file output).  :class:`TaskProperties` captures exactly those fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ComputationMode", "FileSpec", "InputBinding", "TaskProperties"]


class ComputationMode(enum.Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class FileSpec:
    """A file input/output with its size (the SIZE= field of Fig. 1)."""

    path: str
    size_mb: float = 0.0

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("file path must be non-empty")
        if not (math.isfinite(self.size_mb) and self.size_mb >= 0):
            raise ValueError(f"file {self.path!r}: negative or non-finite size")


@dataclass(frozen=True)
class InputBinding:
    """One input port's source: an explicit file or upstream dataflow.

    ``file`` is None for dataflow inputs ("the file entry is marked as
    dataflow" when a parent task supplies it).
    """

    port: int
    file: Optional[FileSpec] = None

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"negative port index: {self.port}")

    @property
    def is_dataflow(self) -> bool:
        return self.file is None


@dataclass(frozen=True)
class TaskProperties:
    """User preferences attached to one AFG task node.

    All fields are optional preferences, as in the paper ("optional"
    is the paper's own parenthesis); ``<any>`` in Figure 1 corresponds
    to ``None`` here.
    """

    mode: ComputationMode = ComputationMode.SEQUENTIAL
    #: processors used by a parallel implementation ("Number of Nodes")
    n_nodes: int = 1
    #: e.g. "SUN solaris"; matched against HostSpec.arch/os
    preferred_machine_type: Optional[str] = None
    #: specific host name, e.g. "hunding.top.cis.syr.edu"
    preferred_machine: Optional[str] = None
    inputs: Tuple[InputBinding, ...] = ()
    outputs: Tuple[FileSpec, ...] = ()
    #: scales the library task's base computation size (problem size knob)
    workload_scale: float = 1.0
    #: resident memory the task needs (consulted by prediction)
    memory_mb: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.mode is ComputationMode.SEQUENTIAL and self.n_nodes != 1:
            raise ValueError("sequential tasks must have n_nodes == 1")
        if not (math.isfinite(self.workload_scale) and self.workload_scale > 0):
            raise ValueError("workload_scale must be positive and finite")
        if self.memory_mb < 0:
            raise ValueError("memory_mb must be non-negative")
        ports = [b.port for b in self.inputs]
        if len(set(ports)) != len(ports):
            raise ValueError(f"duplicate input port bindings: {ports}")

    @property
    def is_parallel(self) -> bool:
        return self.mode is ComputationMode.PARALLEL

    def file_inputs(self) -> Tuple[InputBinding, ...]:
        return tuple(b for b in self.inputs if not b.is_dataflow)

    def total_input_size_mb(self) -> float:
        """Size of explicit file inputs (the scheduler's transfer-size
        parameter for tasks that stage files in)."""
        return sum(b.file.size_mb for b in self.inputs if b.file is not None)

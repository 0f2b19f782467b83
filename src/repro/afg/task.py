"""Task nodes of an Application Flow Graph."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.afg.properties import TaskProperties

__all__ = ["TaskNode"]

_VALID_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")


@dataclass(frozen=True)
class TaskNode:
    """One clickable/draggable task icon of the Application Editor.

    ``task_type`` names an implementation in a task library (e.g.
    ``"matrix.lu_decomposition"``); the scheduler resolves its
    performance characteristics through the task-performance database,
    and the runtime resolves its executable through the task-constraints
    database — the node itself only identifies *what* to run and the
    user's *preferences* for running it.

    ``n_in_ports`` / ``n_out_ports`` are the "markers for logical
    ports" on the icon.
    """

    id: str
    task_type: str
    n_in_ports: int = 0
    n_out_ports: int = 0
    properties: TaskProperties = field(default_factory=TaskProperties)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("task id must be non-empty")
        if not set(self.id) <= _VALID_ID_CHARS:
            raise ValueError(f"task id {self.id!r} contains invalid characters")
        if not self.task_type:
            raise ValueError(f"task {self.id!r}: task_type must be non-empty")
        if self.n_in_ports < 0 or self.n_out_ports < 0:
            raise ValueError(f"task {self.id!r}: negative port count")
        for binding in self.properties.inputs:
            if binding.port >= self.n_in_ports:
                raise ValueError(
                    f"task {self.id!r}: input binding for port {binding.port} "
                    f"but only {self.n_in_ports} input ports"
                )

    def with_properties(self, **changes) -> "TaskNode":
        """A copy with updated properties (editor panel edits)."""
        return replace(self, properties=replace(self.properties, **changes))

    def __str__(self) -> str:
        return f"{self.id}<{self.task_type}>"

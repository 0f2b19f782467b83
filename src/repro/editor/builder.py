"""AFGBuilder: the Application Editor's canvas, programmatically.

Mirrors the two-step process of paper §2 — "building the application
flow graph (AFG), and specifying the task properties of the
application" — with library-aware defaults: port counts come from the
task signature, edge sizes default to the producing task's declared
communication size, and dataflow input bindings are synthesised from
the wiring so the user only states what Figure 1's popup panel states.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.properties import (
    ComputationMode,
    FileSpec,
    InputBinding,
    TaskProperties,
)
from repro.afg.task import TaskNode
from repro.afg.validate import AFGValidationError, validate_afg
from repro.tasklib.registry import TaskRegistry, default_registry

__all__ = ["AFGBuilder", "BuilderError"]


class BuilderError(ValueError):
    """Editor misuse: unknown task types, bad wiring, bad properties."""


class AFGBuilder:
    """Fluent construction of a validated AFG."""

    def __init__(self, name: str, registry: Optional[TaskRegistry] = None):
        self.name = name
        self.registry = registry or default_registry()
        self._afg = ApplicationFlowGraph(name)
        self._auto_ids = itertools.count(1)
        #: explicit file bindings per task: task id -> {port: FileSpec}
        self._file_inputs: Dict[str, Dict[int, FileSpec]] = {}

    # -- canvas operations -------------------------------------------------

    def add(
        self,
        task_type: str,
        id: Optional[str] = None,
        mode: str = "sequential",
        n_nodes: int = 1,
        preferred_machine: Optional[str] = None,
        preferred_machine_type: Optional[str] = None,
        workload_scale: float = 1.0,
        memory_mb: int = 0,
        outputs: Optional[List[FileSpec]] = None,
    ) -> str:
        """Drop one library task on the canvas; returns its node id."""
        if not self.registry.has(task_type):
            raise BuilderError(f"unknown task type {task_type!r}")
        signature = self.registry.get(task_type)
        if id is None:
            short = task_type.split(".", 1)[1]
            id = f"{short}-{next(self._auto_ids)}"
        try:
            properties = TaskProperties(
                mode=ComputationMode(mode),
                n_nodes=n_nodes,
                preferred_machine=preferred_machine,
                preferred_machine_type=preferred_machine_type,
                workload_scale=workload_scale,
                memory_mb=memory_mb,
                outputs=tuple(outputs or ()),
            )
            node = TaskNode(
                id=id,
                task_type=task_type,
                n_in_ports=signature.n_in_ports,
                n_out_ports=signature.n_out_ports,
                properties=properties,
            )
        except ValueError as exc:
            raise BuilderError(str(exc)) from exc
        try:
            self._afg.add_task(node)
        except ValueError as exc:
            raise BuilderError(str(exc)) from exc
        return id

    def connect(
        self,
        src: str,
        dst: str,
        src_port: int = 0,
        dst_port: int = 0,
        size_mb: Optional[float] = None,
    ) -> None:
        """Wire an output port to an input port.

        ``size_mb`` defaults to the producer's declared communication
        size scaled by its workload scale — the editor knows the
        library, the user doesn't retype it.
        """
        try:
            src_node = self._afg.task(src)
        except KeyError as exc:
            raise BuilderError(str(exc)) from exc
        if size_mb is None:
            signature = self.registry.get(src_node.task_type)
            size_mb = signature.output_size_mb(src_node.properties.workload_scale)
        try:
            self._afg.connect(src, dst, src_port=src_port, dst_port=dst_port,
                              size_mb=size_mb)
        except (KeyError, ValueError) as exc:
            raise BuilderError(str(exc)) from exc

    def remove(self, task: str) -> None:
        """Delete a task (and its wiring and file bindings) from the canvas."""
        try:
            self._afg.remove_task(task)
        except KeyError as exc:
            raise BuilderError(str(exc)) from exc
        self._file_inputs.pop(task, None)

    def disconnect(self, src: str, dst: str, src_port: int = 0,
                   dst_port: int = 0) -> None:
        """Remove one wire from the canvas."""
        try:
            self._afg.disconnect(src, dst, src_port=src_port, dst_port=dst_port)
        except KeyError as exc:
            raise BuilderError(str(exc)) from exc

    def bind_file(self, task: str, port: int, path: str, size_mb: float) -> None:
        """Attach an explicit file input (Figure 1's Input: <file, SIZE=...>)."""
        try:
            node = self._afg.task(task)
        except KeyError as exc:
            raise BuilderError(str(exc)) from exc
        if port < 0 or port >= node.n_in_ports:
            raise BuilderError(
                f"task {task!r} has no input port {port} "
                f"(0..{node.n_in_ports - 1})"
            )
        if any(e.dst_port == port for e in self._afg.in_edges(task)):
            raise BuilderError(
                f"input port {port} of {task!r} is already fed by dataflow"
            )
        try:
            spec = FileSpec(path, size_mb)
        except ValueError as exc:
            raise BuilderError(str(exc)) from exc
        self._file_inputs.setdefault(task, {})[port] = spec

    def set_properties(self, task: str, **changes) -> None:
        """Edit the popup panel of an existing task."""
        try:
            node = self._afg.task(task)
        except KeyError as exc:
            raise BuilderError(str(exc)) from exc
        if "mode" in changes and isinstance(changes["mode"], str):
            changes["mode"] = ComputationMode(changes["mode"])
        try:
            self._afg.replace_task(
                replace(node, properties=replace(node.properties, **changes))
            )
        except (TypeError, ValueError) as exc:
            raise BuilderError(str(exc)) from exc

    # -- introspection ---------------------------------------------------------

    def preview(self) -> ApplicationFlowGraph:
        """The graph as wired so far (no validation, no bindings applied)."""
        return self._afg

    # -- finalisation -------------------------------------------------------------

    def build(self, validate: bool = True) -> ApplicationFlowGraph:
        """Synthesise input bindings and return the validated AFG.

        Every input port fed by an edge is bound as dataflow; ports with
        registered files get file bindings; any port left over is a
        validation error ("unconnected and has no file binding").
        """
        for node in list(self._afg):
            bindings: List[InputBinding] = []
            connected = {e.dst_port for e in self._afg.in_edges(node.id)}
            files = self._file_inputs.get(node.id, {})
            for port in range(node.n_in_ports):
                if port in connected:
                    bindings.append(InputBinding(port))
                elif port in files:
                    bindings.append(InputBinding(port, files[port]))
            self._afg.replace_task(
                replace(node, properties=replace(node.properties,
                                                 inputs=tuple(bindings)))
            )
        if validate:
            problems = validate_afg(self._afg, registry=self.registry,
                                    collect=True)
            if problems:
                raise AFGValidationError(problems)
        return self._afg

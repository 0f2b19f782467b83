"""The Application Flow Graph: a DAG of tasks joined port-to-port.

Building an application "can be divided into two steps: building the
application flow graph (AFG), and specifying the task properties"
(paper §2).  This module is the AFG itself; the Application Editor
(:mod:`repro.editor`) is one way to build it, and the serialisation in
:mod:`repro.afg.serialize` is what the site scheduler multicasts to
remote sites (Fig. 2, step 3).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.afg.task import TaskNode

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ApplicationFlowGraph", "Edge", "StructureSnapshot"]


@dataclass(frozen=True)
class Edge:
    """A dataflow edge from ``src``'s output port to ``dst``'s input port.

    ``size_mb`` is the volume the Data Manager must move when the two
    endpoints land on different hosts — the "size of the transfer" in
    the site scheduler's transfer-time term (paper §3).
    """

    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0
    size_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop on task {self.src!r}")
        if self.src_port < 0 or self.dst_port < 0:
            raise ValueError(f"edge {self.src}->{self.dst}: negative port")
        if not (math.isfinite(self.size_mb) and self.size_mb >= 0):
            raise ValueError(f"edge {self.src}->{self.dst}: negative or "
                             f"non-finite size {self.size_mb!r}")


class StructureSnapshot:
    """What a scheduling round derives from an AFG's structure, once.

    A ``select_hosts`` / ``schedule_with_trace`` call is synchronous — no
    AFG changes inside it — so everything below is a function of one
    ``structure_version``: built on first use, shared read-only by every
    reader (all participating sites see the same multicast AFG object),
    dropped by the next mutation.

    ``order`` is Kahn's order with a min-heap ready set (each step takes
    the lexicographically smallest ready task); ``parents`` /
    ``children`` are the de-duplicated neighbour ids in first-edge
    order.  ``index`` is each task's position in ``order`` — its bit —
    and ``reach`` (built when first asked for) maps each task to the
    mask of the tasks ordered with it, ancestors | descendants: n
    integers of n bits where n sets would grow with depth squared.
    """

    __slots__ = ("order", "parents", "children", "index", "_reach")

    def __init__(self, afg: "ApplicationFlowGraph"):
        self.parents: Dict[str, Tuple[str, ...]] = {
            t: tuple(dict.fromkeys(e.src for e in edges))
            for t, edges in afg._pred.items()
        }
        self.children: Dict[str, Tuple[str, ...]] = {
            t: tuple(dict.fromkeys(e.dst for e in edges))
            for t, edges in afg._succ.items()
        }
        children = self.children
        waiting = {t: len(near) for t, near in self.parents.items()}
        ready = [t for t, n in waiting.items() if not n]
        heapq.heapify(ready)
        order: List[str] = []
        pop, push = heapq.heappop, heapq.heappush
        while ready:
            t = pop(ready)
            order.append(t)
            for child in children[t]:
                waiting[child] -= 1
                if not waiting[child]:
                    push(ready, child)
        if len(order) != len(waiting):
            raise ValueError(f"AFG {afg.name!r} contains a cycle")
        self.order: Tuple[str, ...] = tuple(order)
        self.index: Dict[str, int] = {t: i for i, t in enumerate(order)}
        self._reach: Optional[Dict[str, int]] = None

    @property
    def reach(self) -> Dict[str, int]:
        reach = self._reach
        if reach is None:
            # descendants against the order, ancestors along it: one
            # big-int ``|`` per edge.  ``below`` / ``above`` carry the
            # task's own bit so a neighbour's mask is its whole
            # contribution; it is taken off again at the end.
            index, parents, children = self.index, self.parents, self.children
            reach = {}
            for t in reversed(self.order):
                below = 1 << index[t]
                for child in children[t]:
                    below |= reach[child]
                reach[t] = below
            above: Dict[str, int] = {}
            for t in self.order:
                own = 1 << index[t]
                mask = own
                for parent in parents[t]:
                    mask |= above[parent]
                above[t] = mask
                reach[t] = (reach[t] | mask) ^ own
            self._reach = reach
        return reach


class ApplicationFlowGraph:
    """A named DAG of :class:`TaskNode` with port-to-port edges."""

    #: the derived-structure snapshot of the current ``structure_version``
    #: (None = not built yet); never copied or pickled with the graph
    _structure: Optional[StructureSnapshot] = None

    def __init__(self, name: str = "application"):
        if not name:
            raise ValueError("application name must be non-empty")
        self.name = name
        self._tasks: Dict[str, TaskNode] = {}
        self._edges: List[Edge] = []
        self._succ: Dict[str, List[Edge]] = {}
        self._pred: Dict[str, List[Edge]] = {}
        #: bumped on any node/edge change, which also drops the snapshot
        self.structure_version = 0

    def _structure_changed(self) -> None:
        self.structure_version += 1
        self._structure = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_structure", None)
        return state

    # -- construction ----------------------------------------------------

    def add_task(self, task: TaskNode) -> TaskNode:
        if task.id in self._tasks:
            raise ValueError(f"duplicate task id {task.id!r}")
        self._tasks[task.id] = task
        self._succ[task.id] = []
        self._pred[task.id] = []
        self._structure_changed()
        return task

    def replace_task(self, task: TaskNode) -> TaskNode:
        """Swap in an updated node (editor property edits) keeping edges."""
        if task.id not in self._tasks:
            raise KeyError(f"unknown task {task.id!r}")
        self._tasks[task.id] = task
        return task

    def remove_task(self, task_id: str) -> TaskNode:
        """Delete a task and every edge touching it (editor delete-key)."""
        node = self.task(task_id)
        doomed = [
            e for e in self._edges if e.src == task_id or e.dst == task_id
        ]
        for edge in doomed:
            self._edges.remove(edge)
            self._succ[edge.src].remove(edge)
            self._pred[edge.dst].remove(edge)
        del self._tasks[task_id]
        del self._succ[task_id]
        del self._pred[task_id]
        self._structure_changed()
        return node

    def disconnect(
        self, src: str, dst: str, src_port: int = 0, dst_port: int = 0
    ) -> Edge:
        """Remove one edge (both endpoints must exist)."""
        self.task(src)
        self.task(dst)
        for edge in self._succ[src]:
            if (edge.dst == dst and edge.src_port == src_port
                    and edge.dst_port == dst_port):
                self._edges.remove(edge)
                self._succ[src].remove(edge)
                self._pred[dst].remove(edge)
                self._structure_changed()
                return edge
        raise KeyError(
            f"no edge {src!r}:{src_port} -> {dst!r}:{dst_port}"
        )

    def connect(
        self,
        src: str,
        dst: str,
        src_port: int = 0,
        dst_port: int = 0,
        size_mb: float = 0.0,
    ) -> Edge:
        """Wire an output port of ``src`` to an input port of ``dst``."""
        if src not in self._tasks:
            raise KeyError(f"unknown source task {src!r}")
        if dst not in self._tasks:
            raise KeyError(f"unknown destination task {dst!r}")
        src_node, dst_node = self._tasks[src], self._tasks[dst]
        if src_port >= src_node.n_out_ports:
            raise ValueError(
                f"task {src!r} has {src_node.n_out_ports} output ports, "
                f"no port {src_port}"
            )
        if dst_port >= dst_node.n_in_ports:
            raise ValueError(
                f"task {dst!r} has {dst_node.n_in_ports} input ports, "
                f"no port {dst_port}"
            )
        for e in self._pred[dst]:
            if e.dst_port == dst_port:
                raise ValueError(
                    f"input port {dst_port} of task {dst!r} already connected "
                    f"(from {e.src!r})"
                )
        edge = Edge(src=src, dst=dst, src_port=src_port, dst_port=dst_port,
                    size_mb=size_mb)
        self._edges.append(edge)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        self._structure_changed()
        return edge

    # -- queries -------------------------------------------------------------

    @property
    def tasks(self) -> Dict[str, TaskNode]:
        return dict(self._tasks)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def task(self, task_id: str) -> TaskNode:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise KeyError(f"unknown task {task_id!r}") from None

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskNode]:
        return iter(self._tasks.values())

    def out_edges(self, task_id: str) -> List[Edge]:
        return list(self._succ[self.task(task_id).id])

    def in_edges(self, task_id: str) -> List[Edge]:
        return list(self._pred[self.task(task_id).id])

    def children(self, task_id: str) -> List[str]:
        seen: List[str] = []
        for e in self._succ[self.task(task_id).id]:
            if e.dst not in seen:
                seen.append(e.dst)
        return seen

    def parents(self, task_id: str) -> List[str]:
        seen: List[str] = []
        for e in self._pred[self.task(task_id).id]:
            if e.src not in seen:
                seen.append(e.src)
        return seen

    def entry_tasks(self) -> List[str]:
        """Tasks with no parents ("entry nodes" in Fig. 2 step 6)."""
        return [t for t in self._tasks if not self._pred[t]]

    def exit_tasks(self) -> List[str]:
        return [t for t in self._tasks if not self._succ[t]]

    def requires_input_transfer(self, task_id: str) -> bool:
        """Fig. 2 step 7's test: does the task need input staged in?

        An entry task, or a task whose bound inputs are all local files
        with zero dataflow edges, "does not require input" — the site
        scheduler then places it purely on predicted execution time.
        """
        node = self.task(task_id)
        if self._pred[task_id]:
            return True
        return node.properties.total_input_size_mb() > 0

    # -- graph algorithms --------------------------------------------------

    def structure(self) -> StructureSnapshot:
        """The snapshot of the current structure; raises on cycles (a
        failed build is not kept, so it raises on every call)."""
        snapshot = self._structure
        if snapshot is None:
            snapshot = self._structure = StructureSnapshot(self)
        return snapshot

    def topological_order(self) -> List[str]:
        """Kahn's order as a fresh list; raises ``ValueError`` on cycles."""
        return list(self.structure().order)

    def is_acyclic(self) -> bool:
        try:
            self.structure()
            return True
        except ValueError:
            return False

    def edge_size_between(self, src: str, dst: str) -> float:
        """Total data volume moved from ``src`` to ``dst`` (all port pairs)."""
        return sum(e.size_mb for e in self._succ[src] if e.dst == dst)

    def to_networkx(self) -> nx.DiGraph:
        """Export for analysis/visualisation (node attrs carry the TaskNode)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for task in self._tasks.values():
            g.add_node(task.id, task=task)
        for e in self._edges:
            weight = g.edges[e.src, e.dst]["size_mb"] if g.has_edge(e.src, e.dst) else 0.0
            g.add_edge(e.src, e.dst, size_mb=weight + e.size_mb)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationFlowGraph({self.name!r}, tasks={len(self._tasks)}, "
            f"edges={len(self._edges)})"
        )

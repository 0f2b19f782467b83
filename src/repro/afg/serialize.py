"""AFG (de)serialisation — the wire format of the scheduler multicast.

Fig. 2 step 3 multicasts the AFG to remote sites, and the web editor
submits graphs over HTTP; both use this JSON-dict representation.  The
round-trip is exact: ``afg_from_dict(afg_to_dict(g))`` reproduces every
node, property and edge.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.properties import (
    ComputationMode,
    FileSpec,
    InputBinding,
    TaskProperties,
)
from repro.afg.task import TaskNode

__all__ = ["afg_from_dict", "afg_from_json", "afg_to_dict", "afg_to_json"]

_FORMAT_VERSION = 1


def _properties_to_dict(p: TaskProperties) -> Dict[str, Any]:
    return {
        "mode": p.mode.value,
        "n_nodes": p.n_nodes,
        "preferred_machine_type": p.preferred_machine_type,
        "preferred_machine": p.preferred_machine,
        "inputs": [
            {
                "port": b.port,
                "file": None
                if b.file is None
                else {"path": b.file.path, "size_mb": b.file.size_mb},
            }
            for b in p.inputs
        ],
        "outputs": [{"path": f.path, "size_mb": f.size_mb} for f in p.outputs],
        "workload_scale": p.workload_scale,
        "memory_mb": p.memory_mb,
    }


def _properties_from_dict(d: Dict[str, Any]) -> TaskProperties:
    def file_spec(fd):
        return None if fd is None else FileSpec(path=fd["path"], size_mb=fd["size_mb"])

    return TaskProperties(
        mode=ComputationMode(d.get("mode", "sequential")),
        n_nodes=d.get("n_nodes", 1),
        preferred_machine_type=d.get("preferred_machine_type"),
        preferred_machine=d.get("preferred_machine"),
        inputs=tuple(
            InputBinding(port=b["port"], file=file_spec(b.get("file")))
            for b in d.get("inputs", [])
        ),
        outputs=tuple(
            FileSpec(path=f["path"], size_mb=f["size_mb"])
            for f in d.get("outputs", [])
        ),
        workload_scale=d.get("workload_scale", 1.0),
        memory_mb=d.get("memory_mb", 0),
    )


def afg_to_dict(afg: ApplicationFlowGraph) -> Dict[str, Any]:
    return {
        "format": _FORMAT_VERSION,
        "name": afg.name,
        "tasks": [
            {
                "id": t.id,
                "task_type": t.task_type,
                "n_in_ports": t.n_in_ports,
                "n_out_ports": t.n_out_ports,
                "properties": _properties_to_dict(t.properties),
            }
            for t in afg
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "src_port": e.src_port,
                "dst_port": e.dst_port,
                "size_mb": e.size_mb,
            }
            for e in afg.edges
        ],
    }


def afg_from_dict(data: Dict[str, Any]) -> ApplicationFlowGraph:
    version = data.get("format", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported AFG format version {version!r}")
    afg = ApplicationFlowGraph(name=data.get("name", "application"))
    for td in data.get("tasks", []):
        afg.add_task(
            TaskNode(
                id=td["id"],
                task_type=td["task_type"],
                n_in_ports=td.get("n_in_ports", 0),
                n_out_ports=td.get("n_out_ports", 0),
                properties=_properties_from_dict(td.get("properties", {})),
            )
        )
    for ed in data.get("edges", []):
        afg.connect(
            ed["src"],
            ed["dst"],
            src_port=ed.get("src_port", 0),
            dst_port=ed.get("dst_port", 0),
            size_mb=ed.get("size_mb", 0.0),
        )
    return afg


def afg_from_json(text: str) -> ApplicationFlowGraph:
    return afg_from_dict(json.loads(text))

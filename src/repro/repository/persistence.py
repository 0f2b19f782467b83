"""Site-repository persistence: snapshot/restore the four databases.

A real VDCE server survives restarts; its repository is durable state.
This module serialises a :class:`~repro.repository.store.SiteRepository`
to a JSON-safe dict (and back), covering all four databases:

* user accounts (salt + PBKDF2 hash, base64 — never plaintext);
* resource-performance rows (static spec + last dynamic state);
* task-performance records and learned (task, host) calibrations;
* task-constraints executable paths.

Round-trip fidelity is exact: ``restore(snapshot(repo))`` reproduces
every row, and restored repositories authenticate the same passwords.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict

from repro.repository.store import SiteRepository
from repro.repository.users import AccessDomain, UserAccount
from repro.repository.resources import MembershipState
from repro.repository.taskperf import TaskPerfRecord
from repro.sim.host import HostSpec
from repro.tasklib.base import ParallelModel

__all__ = ["restore_repository", "snapshot_repository",
           "load_repository", "save_repository"]

_FORMAT = 1


def snapshot_repository(repo: SiteRepository) -> Dict[str, Any]:
    """Serialise all four databases to a JSON-safe dict."""
    users = []
    for name in sorted(repo.users._accounts):  # noqa: SLF001 - owning module
        account = repo.users._accounts[name]
        users.append(
            {
                "user_name": account.user_name,
                "user_id": account.user_id,
                "priority": account.priority,
                "access_domain": account.access_domain.value,
                "salt": base64.b64encode(account.salt).decode("ascii"),
                "password_hash": base64.b64encode(
                    account.password_hash
                ).decode("ascii"),
            }
        )

    hosts = []
    for record in repo.resources.all_hosts():
        row = {
            "spec": {
                "name": record.spec.name,
                "speed": record.spec.speed,
                "memory_mb": record.spec.memory_mb,
                "arch": record.spec.arch,
                "os": record.spec.os,
                "thrash_factor": record.spec.thrash_factor,
            },
            "group": record.group,
            "up": record.up,
            "load": record.load,
            "available_memory_mb": record.available_memory_mb,
            "updated_at": record.updated_at
            if record.updated_at != float("-inf")
            else None,
        }
        # Membership keys are emitted only when non-default so
        # pre-membership snapshots and fault-free snapshots are
        # byte-identical to what format 1 always produced.
        if record.state != MembershipState.ACTIVE:
            row["state"] = record.state
        if record.epoch != 0:
            row["epoch"] = record.epoch
        hosts.append(row)

    tasks = []
    for task_type in repo.task_perf.task_types():
        record = repo.task_perf.get(task_type)
        tasks.append(
            {
                "task_type": record.task_type,
                "computation_size": record.computation_size,
                "communication_size_mb": record.communication_size_mb,
                "required_memory_mb": record.required_memory_mb,
                "parallel_overhead": (
                    record.parallel.overhead if record.parallel else None
                ),
            }
        )
    calibrations = [
        {"task_type": t, "host": h, "ratio": ratio}
        for (t, h), ratio in sorted(
            repo.task_perf._host_ratio.items()  # noqa: SLF001
        )
    ]

    constraints = [
        {"task_type": t, "host": h, "path": path}
        for (t, h), path in sorted(repo.constraints._paths.items())  # noqa: SLF001
    ]

    snapshot = {
        "format": _FORMAT,
        "site_name": repo.site_name,
        "users": users,
        "hosts": hosts,
        "tasks": tasks,
        "calibrations": calibrations,
        "constraints": constraints,
    }
    departed = repo.resources.departed_hosts()
    if departed:
        # Tombstones carry the epoch a rejoin must exceed; omitted when
        # empty so pre-membership snapshots are unchanged.
        snapshot["departed"] = {
            name: departed[name] for name in sorted(departed)
        }
    return snapshot


def restore_repository(data: Dict[str, Any]) -> SiteRepository:
    """Rebuild a repository from a snapshot dict."""
    if data.get("format") != _FORMAT:
        raise ValueError(f"unsupported snapshot format {data.get('format')!r}")
    repo = SiteRepository(data["site_name"])

    for u in data["users"]:
        account = UserAccount(
            user_name=u["user_name"],
            user_id=u["user_id"],
            priority=u["priority"],
            access_domain=AccessDomain(u["access_domain"]),
            salt=base64.b64decode(u["salt"]),
            password_hash=base64.b64decode(u["password_hash"]),
        )
        repo.users._accounts[account.user_name] = account  # noqa: SLF001
        repo.users._next_uid = max(  # noqa: SLF001
            repo.users._next_uid, account.user_id + 1  # noqa: SLF001
        )

    for h in data["hosts"]:
        spec = HostSpec.from_record(h["spec"], "repository snapshot")
        repo.resources.register_host(
            spec,
            group=h["group"],
            state=h.get("state", MembershipState.ACTIVE),
            epoch=h.get("epoch", 0),
        )
        updated_at = h["updated_at"]
        if updated_at is not None:
            repo.resources.update_workload(
                spec.name, load=h["load"],
                available_memory_mb=h["available_memory_mb"],
                time=updated_at,
            )
        if not h["up"]:
            repo.resources.mark_down(
                spec.name,
                time=updated_at if updated_at is not None else 0.0,
            )
    for name, epoch in data.get("departed", {}).items():
        repo.resources.restore_departed(name, epoch)

    for t in data["tasks"]:
        repo.task_perf.register(
            TaskPerfRecord(
                task_type=t["task_type"],
                computation_size=t["computation_size"],
                communication_size_mb=t["communication_size_mb"],
                required_memory_mb=t["required_memory_mb"],
                parallel=(
                    ParallelModel(overhead=t["parallel_overhead"])
                    if t["parallel_overhead"] is not None
                    else None
                ),
            )
        )
    for c in data["calibrations"]:
        repo.task_perf._host_ratio[(c["task_type"], c["host"])] = c["ratio"]  # noqa: SLF001

    for c in data["constraints"]:
        repo.constraints.register(c["task_type"], c["host"], c["path"])

    return repo


def save_repository(repo: SiteRepository, path: str) -> None:
    """Write a snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot_repository(repo), fh, indent=1, sort_keys=True)


def load_repository(path: str) -> SiteRepository:
    """Read a snapshot back from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return restore_repository(json.load(fh))

"""Durable application checkpoint journal and resume support.

The paper targets "long-running C3I applications on unreliable WAN
resources"; losing every completed task to a runtime restart is not an
option at that scale.  This module gives one application a durable,
append-only, crash-consistent journal recording

* the schedule (AFG + resource allocation table + submitting site),
* every task completion, with the content hash, encoded value and
  location of each output port (so completed outputs are re-stageable
  through the Data Manager machinery without re-running the task),
* every reschedule, and
* every resume.

Crash consistency is per-record: each JSONL line carries a checksum of
its own body.  A *torn tail* — a truncated or corrupt line with no
valid records after it — is the signature of a crash mid-append and is
safely discarded (a crash loses at most the record being written,
never an earlier one); opening an existing journal for append
truncates such a tail first, so post-crash appends are always
readable.  A corrupt *interior* record — one followed by valid
records — cannot come from a torn append: the file was damaged in
place, and resuming from the surviving prefix would silently forget
completed work, so the reader raises a typed
:class:`~repro.errors.JournalCorruptError` instead.

:func:`resume_run` rebuilds a fresh deployment from the journal plus
the ``save_repositories()`` snapshots next to it and re-executes only
the incomplete frontier.  The *resume-equivalence oracle* rests on the
task library being deterministic pure functions of ``(inputs, scale)``:
:func:`expected_output_hashes` evaluates the AFG without any runtime at
all, and crash+resume must reproduce exactly those final output hashes
(checked by the chaos invariant I5, the CLI ``repro resume --expect``
path, and the resume test suite).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.serialize import afg_from_dict
from repro.errors import JournalCorruptError
from repro.hashing import canonical_json, value_hash
from repro.scheduler.allocation import AllocationTable

__all__ = [
    "ApplicationCheckpoint",
    "CheckpointJournal",
    "create_checkpoint_dir",
    "decode_value",
    "encode_value",
    "expected_output_hashes",
    "final_output_hashes",
    "journal_path",
    "resume_run",
    "value_hash",
]

_JOURNAL_FILENAME = "journal.jsonl"
_META_FILENAME = "meta.json"
_REPOS_DIRNAME = "repos"


# -- canonical value hashing -------------------------------------------------
#
# value_hash moved to repro.hashing so the net layer can share it
# without importing runtime; re-exported here for back-compat.


def encode_value(value: Any) -> str:
    """JSON-safe encoding of an arbitrary output payload."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_value(encoded: str) -> Any:
    return pickle.loads(base64.b64decode(encoded.encode("ascii")))


# -- the journal -------------------------------------------------------------


def _record_crc(payload: str) -> str:
    """Checksum of a record's canonical encoding."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _record_line(body: Dict[str, Any]) -> str:
    """``body`` plus its ``"crc"``, canonical: the keys sorting before
    ``"crc"`` and those after are encoded once, for checksum and line."""
    before, after = (canonical_json({k: v for k, v in body.items()
                                     if (k < "crc") is side})[1:-1]
                     for side in (True, False))
    crc = _record_crc("{" + ",".join(filter(None, (before, after))) + "}")
    return "{" + ",".join(filter(None, (before, f'"crc":"{crc}"', after))) + "}"


class CheckpointJournal:
    """Append-only, crash-consistent JSONL journal for one application.

    With a ``path``, every append writes one checksummed line and
    fsyncs — after a crash the file is a valid prefix of the record
    stream plus at most one torn line, which both :meth:`read` and
    re-opening for append discard.  With ``path=None`` the journal is
    memory-only (the chaos harness uses this: same record stream and
    byte accounting, no filesystem).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.bytes_written = 0
        self._records: List[Dict[str, Any]] = []
        #: indices of in-memory records marked corrupt by fault injection
        self._corrupt_indices: set = set()
        if path is not None and os.path.exists(path):
            self._records, valid_bytes = self._scan(path)
            size = os.path.getsize(path)
            if size > valid_bytes:
                # torn tail from a crash mid-append: drop it before
                # appending, so the stream stays a readable prefix
                with open(path, "r+b") as fh:
                    fh.truncate(valid_bytes)

    # -- write side -------------------------------------------------------

    def append(self, kind: str, **fields: Any) -> int:
        """Append one record; returns the bytes it occupied on the wire."""
        body = {"kind": kind, **fields}
        raw = (_record_line(body) + "\n").encode("utf-8")
        if self.path is not None:
            with open(self.path, "ab") as fh:
                fh.write(raw)
                fh.flush()
                os.fsync(fh.fileno())
        self._records.append(body)
        self.bytes_written += len(raw)
        return len(raw)

    # -- read side --------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every record appended (or recovered from disk), in order.

        Records marked corrupt by fault injection follow the same
        contract as the on-disk reader: a corrupt *tail* record is
        dropped (torn-append semantics), a corrupt *interior* record
        aborts with :class:`JournalCorruptError`.
        """
        if self._corrupt_indices:
            interior = [
                i for i in self._corrupt_indices if i < len(self._records) - 1
            ]
            if interior:
                raise JournalCorruptError(
                    f"journal record {min(interior)} is corrupt with "
                    f"{len(self._records) - 1 - min(interior)} valid "
                    "record(s) after it — in-place damage, refusing to "
                    "resume from a silently shortened history",
                    record_index=min(interior),
                )
            return [
                r
                for i, r in enumerate(self._records)
                if i not in self._corrupt_indices
            ]
        return list(self._records)

    @staticmethod
    def _scan(path: str) -> Tuple[List[Dict[str, Any]], int]:
        """Parse the valid prefix; returns (records, valid byte length).

        A bad line (truncated, unparseable, or CRC-failing) followed
        only by further bad lines is a torn tail and marks the end of
        the valid prefix.  A bad line *followed by a valid record* is
        interior corruption — the file was damaged in place, not torn
        by a crashed append — and raises :class:`JournalCorruptError`
        rather than silently forgetting the later records.
        """

        def parse(raw: bytes) -> Optional[Dict[str, Any]]:
            if not raw.endswith(b"\n"):
                return None  # truncated final line
            try:
                line_obj = json.loads(raw.decode("utf-8"))
                crc = line_obj.pop("crc")
            except (ValueError, KeyError, AttributeError):
                return None
            if (not isinstance(line_obj, dict)
                    or _record_crc(canonical_json(line_obj)) != crc):
                return None
            return line_obj

        records: List[Dict[str, Any]] = []
        valid_bytes = 0
        with open(path, "rb") as fh:
            lines = fh.readlines()
        for index, raw in enumerate(lines):
            parsed = parse(raw)
            if parsed is None:
                survivors = sum(
                    1 for later in lines[index + 1 :] if parse(later) is not None
                )
                if survivors:
                    raise JournalCorruptError(
                        f"journal record {index} is corrupt with {survivors} "
                        "valid record(s) after it — in-place damage, not a "
                        "torn append; refusing to resume from a silently "
                        "shortened history",
                        record_index=index,
                    )
                break  # torn tail: everything after is garbage too
            records.append(parsed)
            valid_bytes += len(raw)
        return records, valid_bytes

    @staticmethod
    def read(path: str) -> List[Dict[str, Any]]:
        """The valid record prefix of a journal file."""
        records, _valid = CheckpointJournal._scan(path)
        return records

    # -- fault injection --------------------------------------------------

    def inject_corruption(self, rng) -> Dict[str, Any]:
        """Damage one journal record in place (chaos fault hook).

        File-backed journals get a single bit flipped at an
        ``rng``-chosen byte offset — exactly the disk-rot fault the
        interior-corruption check exists for.  Memory-only journals
        (the chaos harness) mark an ``rng``-chosen record corrupt so
        :meth:`records` applies the same tail-vs-interior contract.
        Returns a description of what was damaged, for ground-truth
        logging.
        """
        if self.path is not None and os.path.exists(self.path):
            size = os.path.getsize(self.path)
            if size == 0:
                return {"mode": "file", "offset": None}
            offset = int(rng.integers(0, size))
            bit = int(rng.integers(0, 8))
            with open(self.path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)
                fh.seek(offset)
                fh.write(bytes([byte[0] ^ (1 << bit)]))
            return {"mode": "file", "offset": offset, "bit": bit}
        if not self._records:
            return {"mode": "memory", "index": None}
        index = int(rng.integers(0, len(self._records)))
        self._corrupt_indices.add(index)
        return {"mode": "memory", "index": index}


# -- the parsed checkpoint ---------------------------------------------------


@dataclass
class ApplicationCheckpoint:
    """One application's recovered state, parsed from its journal."""

    application: str
    scheduler: str
    submit_site: str
    afg: ApplicationFlowGraph
    table: AllocationTable
    #: task id -> its ``task_complete`` journal record
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    reschedules: List[Dict[str, Any]] = field(default_factory=list)
    resumes: int = 0

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "ApplicationCheckpoint":
        if not records or records[0].get("kind") != "schedule":
            raise ValueError(
                "journal has no schedule record — nothing to resume from"
            )
        head = records[0]
        checkpoint = cls(
            application=head["application"],
            scheduler=head["scheduler"],
            submit_site=head["submit_site"],
            afg=afg_from_dict(head["afg"]),
            table=AllocationTable.from_dict(head["table"]),
        )
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "task_complete":
                checkpoint.completed[record["task"]] = record
            elif kind == "reschedule":
                checkpoint.reschedules.append(record)
            elif kind == "resume":
                checkpoint.resumes += 1
                checkpoint.submit_site = record.get(
                    "submit_site", checkpoint.submit_site
                )
        return checkpoint

    @classmethod
    def load(cls, path: str) -> "ApplicationCheckpoint":
        return cls.from_records(CheckpointJournal.read(path))

    def incomplete(self) -> List[str]:
        """The frontier to re-execute, in topological order."""
        return [
            task_id
            for task_id in self.afg.topological_order()
            if task_id not in self.completed
        ]


# -- resume-equivalence oracle -----------------------------------------------


def expected_output_hashes(afg: ApplicationFlowGraph, registry) -> Dict[str, str]:
    """Final output hashes from pure evaluation — no runtime involved.

    Task implementations are deterministic pure functions of
    ``(inputs, scale)``, so the terminal outputs are independent of
    placement, timing, faults, reschedules and resumes.  This evaluates
    the AFG directly and hashes each terminal task's output list: the
    ground truth any run — interrupted or not — must reproduce.

    File inputs without a registered loader resolve to the same
    :class:`~repro.runtime.services.StagedFile` handle the I/O service
    produces; AFGs whose loaders inject external data are outside this
    oracle's scope.
    """
    from repro.runtime.services import StagedFile

    produced: Dict[Tuple[str, int], Any] = {}
    hashes: Dict[str, str] = {}
    for task_id in afg.topological_order():
        node = afg.task(task_id)
        port_values: Dict[int, Any] = {}
        for edge in afg.in_edges(task_id):
            port_values[edge.dst_port] = produced[(edge.src, edge.src_port)]
        for binding in node.properties.file_inputs():
            port_values[binding.port] = StagedFile(
                binding.file.path, binding.file.size_mb
            )
        inputs = [port_values.get(p) for p in range(node.n_in_ports)]
        outputs = registry.get(node.task_type).run(
            inputs, node.properties.workload_scale
        )
        for port, value in enumerate(outputs):
            produced[(task_id, port)] = value
        if not afg.out_edges(task_id):
            hashes[task_id] = value_hash(outputs)
    return hashes


def final_output_hashes(result) -> Dict[str, str]:
    """Content hashes of an :class:`ApplicationResult`'s terminal outputs."""
    return {
        task_id: value_hash(outputs)
        for task_id, outputs in sorted(result.outputs.items())
    }


# -- checkpoint directories and the resume path ------------------------------


def journal_path(directory: str) -> str:
    return os.path.join(directory, _JOURNAL_FILENAME)


def create_checkpoint_dir(vdce, directory: str) -> CheckpointJournal:
    """Prepare ``directory`` as a durable checkpoint for ``vdce``.

    Writes ``meta.json`` (the deployment spec, so :func:`resume_run`
    can rebuild an equivalent federation) and the per-site repository
    snapshots under ``repos/``, then returns the journal to hand to
    :meth:`~repro.runtime.vdce_runtime.VDCERuntime.execute_process`.
    Call :meth:`~repro.core.vdce.VDCE.save_repositories` again at any
    later point to refresh the durable background state.
    """
    from dataclasses import asdict

    if vdce.spec is None:
        raise ValueError(
            "checkpointing needs a spec-built VDCE (resume must be able "
            "to rebuild the topology)"
        )
    os.makedirs(directory, exist_ok=True)
    meta = {"deployment": asdict(vdce.spec)}
    with open(os.path.join(directory, _META_FILENAME), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    vdce.save_repositories(os.path.join(directory, _REPOS_DIRNAME))
    return CheckpointJournal(journal_path(directory))


def _spec_from_meta(meta: Dict[str, Any]):
    from repro.core.config import (
        SITE_GROUP_SIZE,
        SITE_MEMORY_MB,
        DeploymentSpec,
        SiteConfig,
    )
    from repro.sim.host import HostSpec

    # a meta.json from before these SiteConfig fields became constants
    # holds them on every site: it resumes when each holds the value
    # every deployment now uses
    retired = {"memory_mb": SITE_MEMORY_MB, "group_size": SITE_GROUP_SIZE}
    payload = dict(meta["deployment"])
    sites = []
    for site in payload.pop("sites"):
        site = dict(site)
        for key, value in retired.items():
            held = site.pop(key, value)
            if held != value:
                raise ValueError(
                    f"meta.json: site {site.get('name')!r} has {key}={held!r}, "
                    f"but every deployment now uses {key}={value!r}")
        site["hosts"] = tuple(HostSpec(**h) for h in site.get("hosts", ()))
        sites.append(SiteConfig(**site))
    payload["sites"] = tuple(sites)
    payload["wan_overrides"] = tuple(
        tuple(o) for o in payload.get("wan_overrides", ())
    )
    return DeploymentSpec(**payload)


def resume_run(
    directory: str,
    submit_site: Optional[str] = None,
    limit: Optional[float] = None,
    tracer=None,
    metrics=None,
    runtime_config=None,
):
    """Rebuild a deployment from a checkpoint directory and finish the app.

    Returns ``(vdce, result)``: a fresh federation restored from the
    ``repos/`` snapshots, and the :class:`ApplicationResult` of
    re-executing only the incomplete frontier (completed tasks are
    restored from the journal and their output edges re-staged from the
    submitting site's server).  The journal keeps growing across
    resumes, so a run that crashes again resumes from even later.
    """
    from repro.core.vdce import VDCE
    from repro.metrics.registry import NULL_METRICS
    from repro.trace.tracer import NULL_TRACER

    with open(os.path.join(directory, _META_FILENAME), encoding="utf-8") as fh:
        meta = json.load(fh)
    checkpoint = ApplicationCheckpoint.load(journal_path(directory))
    repos_dir = os.path.join(directory, _REPOS_DIRNAME)
    repositories = (
        VDCE.load_repositories(repos_dir) if os.path.isdir(repos_dir) else None
    )
    kwargs = {}
    if runtime_config is not None:
        kwargs["runtime_config"] = runtime_config
    vdce = VDCE(
        spec=_spec_from_meta(meta),
        repositories=repositories,
        # explicit None checks: an *empty* Tracer/registry is falsy
        # (len == 0), and `or` would silently swap in the null object
        tracer=tracer if tracer is not None else NULL_TRACER,
        metrics=metrics if metrics is not None else NULL_METRICS,
        **kwargs,
    )
    journal = CheckpointJournal(journal_path(directory))
    proc = vdce.runtime.execute_process(
        checkpoint.afg,
        checkpoint.table,
        submit_site=submit_site or checkpoint.submit_site,
        journal=journal,
        checkpoint=checkpoint,
    )
    result = vdce.sim.run_until_complete(proc, limit=limit)
    return vdce, result

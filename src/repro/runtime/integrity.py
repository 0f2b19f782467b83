"""End-to-end data integrity: artifact hashes, incidents, repair ledger.

The paper's Data Manager moves every inter-task payload over
point-to-point channels (§4.2) but assumes the bytes arrive intact.
This module is the runtime half of DESIGN §16: it remembers the
canonical content hash (:func:`repro.hashing.value_hash`) of every
produced artifact, tracks where the staged copy lives, checks every
moved copy, runs the one refetch ladder, and keeps the ground-truth
ledger the repair ladder and the chaos auditor both read:

* every *consumption* — a value handed to a task — with whether the
  received bytes matched the producer's recorded hash (invariant I12
  demands these are all clean);
* every *incident* — a detected corruption or a lost staged artifact —
  with how it was resolved: ``refetched``, ``regenerated`` or
  ``poisoned`` (invariant I13 demands none stay unresolved in a
  completed application).

With ``RuntimeConfig.data_integrity`` off the runtime holds
:data:`NULL_INTEGRITY` instead — chosen once, never asked about again —
which hashes, verifies and records nothing, so every committed
trace/metrics hash stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    CorruptPayloadError,
    DataIntegrityError,
    MissingArtifactError,
)
from repro.hashing import value_hash
from repro.trace.events import EventKind

__all__ = ["ArtifactRecord", "IntegrityManager", "NULL_INTEGRITY"]


# The repair ladder's budgets (DESIGN §16).  A delivery that arrives
# corrupt is refetched from the sender up to MAX_REFETCHES times; an
# artifact still corrupt beyond that — or one whose staged copy is lost
# — is *regenerated* by re-executing its producer (recursively up to
# MAX_DEPTH when the producer's own inputs are gone), at most
# MAX_REGENERATIONS times before it is poison-quarantined and its
# consumers fail typed.  A payload with no lineage (a journalled output,
# a file input) fails typed once its refetches are spent.  Read at call
# time.

#: refetches of a corrupt delivery before lineage regeneration
MAX_REFETCHES = 2
#: re-executions of one producer before its artifacts are poisoned
MAX_REGENERATIONS = 2
#: deepest lineage recursion one regeneration may start
MAX_DEPTH = 3


@dataclass
class ArtifactRecord:
    """One produced output port: its hash and the staged copy's fate."""

    application: str
    task: str
    port: int
    content_hash: str
    host: str
    lost: bool = False
    poisoned: bool = False
    #: lineage re-executions spent on this artifact's producer
    regenerations: int = 0


class IntegrityManager:
    """Artifact index + integrity ledger for one runtime."""

    def __init__(self, sim):
        self.sim = sim
        self.tracer = sim.tracer
        self._artifacts: Dict[Tuple[str, str, int], ArtifactRecord] = {}
        #: every value handed to a task, with its verification verdict
        self.consumption_log: List[Dict[str, Any]] = []
        #: every detected corruption / loss, with its resolution
        self.incidents: List[Dict[str, Any]] = []
        self.corruptions_detected = 0
        self.refetches = 0
        self.regenerations = 0
        self.poisoned = 0
        self.artifacts_lost = 0

    # -- artifact index ----------------------------------------------------

    def record_artifact(
        self, application: str, task: str, port: int, value: Any, host: str
    ) -> str:
        """Register (or restore) one produced output; returns its hash."""
        key = (application, task, port)
        existing = self._artifacts.get(key)
        if existing is not None:
            # regeneration restored the staged copy; budgets carry over
            existing.lost = False
            existing.host = host
            return existing.content_hash
        content_hash = value_hash(value)
        self._artifacts[key] = ArtifactRecord(
            application, task, port, content_hash, host
        )
        return content_hash

    def artifact(
        self, application: str, task: str, port: int
    ) -> Optional[ArtifactRecord]:
        return self._artifacts.get((application, task, port))

    def recorded_hash(
        self, application: str, task: str, port: int
    ) -> Optional[str]:
        record = self.artifact(application, task, port)
        return record.content_hash if record is not None else None

    def task_artifacts(self, application: str, task: str) -> List[ArtifactRecord]:
        return [
            record
            for record in self._artifacts.values()
            if record.application == application and record.task == task
        ]

    def drop_host(self, host_name: str) -> int:
        """Fault hook: vanish every staged artifact held on one host.

        Duck-typed target of
        :meth:`~repro.sim.failures.FailureInjector.schedule_artifact_loss`.
        Returns how many artifacts were actually lost.
        """
        dropped = 0
        for record in self._artifacts.values():
            if record.host == host_name and not record.lost:
                record.lost = True
                dropped += 1
        if dropped:
            self.artifacts_lost += dropped
            self.tracer.emit(
                EventKind.ARTIFACT_LOST, source="integrity",
                host=host_name, artifacts=dropped,
            )
        return dropped

    # -- ledger ------------------------------------------------------------

    def record_consumption(
        self, application: str, edge: str, clean: bool,
        expected_hash: Optional[str] = None,
    ) -> None:
        self.consumption_log.append({
            "time": self.sim.now,
            "application": application,
            "edge": edge,
            "clean": bool(clean),
            "expected_hash": expected_hash,
        })

    def open_incident(
        self, application: str, target: str, kind: str
    ) -> Dict[str, Any]:
        """One detected corruption/loss episode; resolve via :meth:`resolve`."""
        incident = {
            "time": self.sim.now,
            "application": application,
            "target": target,
            "kind": kind,  # "corrupt" | "lost" | "stage-corrupt"
            "refetches": 0,
            "regenerations": 0,
            "resolution": None,  # "refetched" | "regenerated" | "poisoned"
        }
        self.incidents.append(incident)
        return incident

    def resolve(self, incident: Dict[str, Any], resolution: str) -> None:
        incident["resolution"] = resolution
        incident["resolved_at"] = self.sim.now

    # -- verification and the repair ladder --------------------------------

    def verify(self, transfer, application: str, target: str, subject: str,
               expected_hash: Optional[str] = None, at: str = "") -> None:
        """The one check of a moved copy, whose transfer's ``corruption``
        marker is the hash verdict: a damaged copy is reported and
        raised ("``<subject> arrived <mode>-damaged<at>``")."""
        if transfer.corruption is None:
            return
        self.note_corruption(
            application, target, transfer.corruption, expected_hash
        )
        raise CorruptPayloadError(
            f"{subject} arrived {transfer.corruption}-damaged{at}",
            expected_hash=expected_hash,
        )

    def copy(self, move, verified, *context):
        """One dataflow copy: the caller's ``verified(move, *context)``,
        which verifies every ``move()`` under the ladder."""
        return verified(move, *context)

    def refetch_ladder(
        self, application: str, target: str, fetch, regenerate=None, *,
        record, kind: str = "corrupt",
    ):
        """Generator: run ``fetch()`` until it returns a verified copy.

        The one refetch ladder (DESIGN §16.3); returns what ``fetch``
        returned.  Both steps are generator functions of the caller:

        ``fetch()`` moves one copy and verifies it.  It raises
        :class:`CorruptPayloadError` for a damaged copy — whoever
        verifies reports, so ``CORRUPT_DETECTED`` is already emitted —
        or :class:`MissingArtifactError` for a staged copy that
        vanished, which no refetch can help.

        ``regenerate(incident)`` restores the artifact from its lineage
        once the refetch budget is spent (and so refilled) or the copy
        is lost.  Payloads without lineage (a journalled output, a file
        input) pass none: exhaustion then re-raises the step's own
        error for the caller to fail its consumer with.

        ``kind`` names the incident a damaged copy opens; ``record`` is
        the task telemetry billed one ``repair_refetches`` per refetch.
        The incident opens lazily and resolves ``refetched`` /
        ``regenerated`` on success, ``poisoned`` on an integrity failure.
        """
        incident = None
        refetches_left = MAX_REFETCHES
        try:
            while True:
                try:
                    value = yield from fetch()
                except (CorruptPayloadError, MissingArtifactError) as damage:
                    lost = isinstance(damage, MissingArtifactError)
                    if incident is None:
                        incident = self.open_incident(
                            application, target, "lost" if lost else kind
                        )
                    if not lost and refetches_left > 0:
                        refetches_left -= 1
                        incident["refetches"] += 1
                        record.repair_refetches += 1
                        self.note_refetch(
                            application, target, incident["refetches"]
                        )
                        continue
                    if regenerate is None:
                        raise
                    yield from regenerate(incident)
                    if not lost:
                        refetches_left = MAX_REFETCHES
                else:
                    if incident is not None:
                        self.resolve(
                            incident,
                            "regenerated" if incident["regenerations"]
                            else "refetched",
                        )
                    return value
        except DataIntegrityError:
            if incident is not None and incident["resolution"] is None:
                self.resolve(incident, "poisoned")
            raise

    # -- event emission (one place, so sim + real paths agree) -------------

    def note_corruption(
        self, application: str, target: str, mode: str,
        expected_hash: Optional[str],
    ) -> None:
        self.corruptions_detected += 1
        self.tracer.emit(
            EventKind.CORRUPT_DETECTED, source="integrity",
            application=application, target=target, mode=mode,
            expected_hash=expected_hash,
        )

    def note_refetch(self, application: str, target: str, attempt: int) -> None:
        self.refetches += 1
        self.tracer.emit(
            EventKind.REFETCH, source="integrity",
            application=application, target=target, attempt=attempt,
        )

    def note_regeneration(
        self, application: str, task: str, depth: int, charged_s: float
    ) -> None:
        self.regenerations += 1
        self.tracer.emit(
            EventKind.REGENERATE, source="integrity",
            application=application, task=task, depth=depth,
            charged_s=charged_s,
        )

    def note_poison(self, application: str, task: str, reason: str) -> None:
        self.poisoned += 1
        for record in self.task_artifacts(application, task):
            record.poisoned = True
        self.tracer.emit(
            EventKind.POISON, source="integrity",
            application=application, task=task, reason=reason,
        )

    # -- reporting ---------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "corruptions_detected": self.corruptions_detected,
            "refetches": self.refetches,
            "regenerations": self.regenerations,
            "poisoned": self.poisoned,
            "artifacts_lost": self.artifacts_lost,
            "incidents": [dict(i) for i in self.incidents],
            "consumptions": len(self.consumption_log),
            "dirty_consumptions": sum(
                1 for c in self.consumption_log if not c["clean"]
            ),
        }


class NullIntegrity:
    """Integrity off: no hash, no check, no ledger entry.  A copy is the
    caller's bare move and a ladder its bare fetch, so the off path runs
    no wrapper frame (DESIGN §16.3)."""

    #: what I12 and I13 audit: nothing consumed, nothing opened
    consumption_log: Tuple[Dict[str, Any], ...] = ()
    incidents: Tuple[Dict[str, Any], ...] = ()

    def record_artifact(self, application, task, port, value, host) -> None:
        pass

    def verify(self, transfer, application, target, subject,
               expected_hash=None, at="") -> None:
        pass

    def copy(self, move, verified, *context):
        return move()

    def refetch_ladder(self, application, target, fetch, regenerate=None,
                       *, record, kind="corrupt"):
        return fetch()


#: the shared "off" — safe because it holds no state
NULL_INTEGRITY = NullIntegrity()

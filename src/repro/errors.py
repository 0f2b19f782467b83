"""Typed data-plane errors, shared across layers.

These live at the package root because both the ``net`` layer (which
must not import ``runtime``) and the runtime raise them.  The chaos
harness treats every :class:`DataIntegrityError` subclass as a *typed*
failure: invariant I13 requires that a corrupted or lost artifact is
either repaired or surfaces to its consumers as one of these — never
as a silent wrong answer or an anonymous crash.

:func:`refuse_non_finite` is the one finiteness check every config
dataclass runs at construction, in whichever layer it lives.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

__all__ = [
    "AggregateExecutionError",
    "CorruptPayloadError",
    "DataIntegrityError",
    "JournalCorruptError",
    "MissingArtifactError",
    "PoisonedArtifactError",
]


class DataIntegrityError(RuntimeError):
    """Base class for every data-plane integrity failure."""


class CorruptPayloadError(DataIntegrityError):
    """A received payload's content hash mismatches the producer's.

    Raised on receive/stage-in, before the bytes reach any task: the
    integrity layer's contract is that a task either consumes bytes
    matching the producer's recorded hash or does not consume at all.
    """

    def __init__(
        self,
        message: str,
        *,
        expected_hash: Optional[str] = None,
        actual_hash: Optional[str] = None,
    ):
        super().__init__(message)
        self.expected_hash = expected_hash
        self.actual_hash = actual_hash


class MissingArtifactError(DataIntegrityError):
    """A staged artifact vanished from the host that held it."""


class PoisonedArtifactError(DataIntegrityError):
    """An artifact exhausted its repair budget and is quarantined.

    After ``MAX_REGENERATIONS`` failed lineage re-executions the
    integrity layer stops looping and fails every consumer with this
    error instead (I13's typed-termination arm).
    """


class JournalCorruptError(DataIntegrityError):
    """A checkpoint journal has a corrupt *interior* record.

    A torn tail (crash mid-append) is recoverable by truncation; a
    CRC-failing record with valid records after it means the file was
    damaged in place, and resuming from the surviving prefix would
    silently forget completed work — so recovery aborts loudly.
    """

    def __init__(self, message: str, *, record_index: Optional[int] = None):
        super().__init__(message)
        self.record_index = record_index


class AggregateExecutionError(RuntimeError):
    """Several task threads failed; carries *all* collected exceptions.

    ``LocalDataManager`` runs one thread per task; when an upstream
    task dies its dependents are aborted and every real (non-abort)
    exception is preserved here, not just whichever thread happened to
    fail first.
    """

    def __init__(self, errors: Sequence[BaseException]):
        self.errors: List[BaseException] = list(errors)
        lines = [f"{len(self.errors)} task(s) failed:"]
        for err in self.errors:
            lines.append(f"  - {type(err).__name__}: {err}")
        super().__init__("\n".join(lines))


def refuse_non_finite(config, unbounded: Sequence[str] = ()) -> None:
    """Raise ``ValueError`` naming the first float field of the
    dataclass ``config`` that is NaN or infinite.  A field named in
    ``unbounded`` may be ``+inf``: there it means "never"."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if (isinstance(value, float) and not math.isfinite(value)
                and not (value == math.inf and f.name in unbounded)):
            raise ValueError(
                f"{type(config).__name__}.{f.name} must be finite, got {value}"
            )

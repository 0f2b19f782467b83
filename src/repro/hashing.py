"""Canonical content hashing for task payloads, and canonical JSON.

One hash function shared by every layer that moves or stores task
output bytes: the checkpoint journal (``runtime/checkpoint.py``), the
simulated Data Manager path (``runtime/execution.py``), the DSM, and
the real-socket path (``net/proxy.py``).  Living at the package root
keeps the layering clean — ``net`` must not import ``runtime``, but
both need to agree byte-for-byte on what a payload hashes to, or the
end-to-end integrity checks of DESIGN §16 would desynchronise between
the simulated and real Data Manager paths.

Canonical across runs and processes: numpy arrays hash their dtype,
shape and raw bytes; floats their IEEE-754 encoding; dicts their
sorted items — never ``repr`` or pickle, whose output can vary.

:func:`canonical_json` is the other byte-level agreement in the
package: every hash taken over JSON (trace, metrics snapshot, explain
report, journal record, campaign log) is taken over this one encoding.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from typing import Any

__all__ = ["canonical_json", "value_hash"]

#: built once per process: ``json.dumps(..., sort_keys=True, ...)`` would
#: construct this same encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """``value`` as JSON with sorted keys and no insignificant whitespace.

    The bytes are those ``json.dumps`` gives with the same two
    settings: ASCII-only, shortest round-trip float ``repr``, one line.
    """
    return _CANONICAL.encode(value)


def _feed(h, value: Any) -> None:
    """Feed one value into a hash, type-tagged and representation-stable.

    numpy is looked up, not imported: a numpy value cannot exist before
    numpy is.
    """
    np = sys.modules.get("numpy")
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool) or (np and isinstance(value, np.bool_)):
        h.update(b"B1" if value else b"B0")
    elif isinstance(value, int) or (np and isinstance(value, np.integer)):
        h.update(b"I" + str(int(value)).encode("ascii"))
    elif isinstance(value, float) or (np and isinstance(value, np.floating)):
        h.update(b"F" + struct.pack(">d", float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        h.update(b"S" + str(len(raw)).encode("ascii") + b":" + raw)
    elif isinstance(value, bytes):
        h.update(b"Y" + str(len(value)).encode("ascii") + b":" + value)
    elif np and isinstance(value, np.ndarray):
        h.update(b"A" + value.dtype.str.encode("ascii"))
        h.update(str(value.shape).encode("ascii"))
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"L" + str(len(value)).encode("ascii"))
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"D" + str(len(value)).encode("ascii"))
        for key in sorted(value, key=str):
            _feed(h, str(key))
            _feed(h, value[key])
    else:
        # last resort for exotic payloads: a stable repr round
        h.update(b"R" + repr(value).encode("utf-8"))


def value_hash(value: Any) -> str:
    """Canonical sha256 content hash of one task output value."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()

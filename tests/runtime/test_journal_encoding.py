"""A journal line is encoded once, and is the line it always was.

``CheckpointJournal.append`` used to canonical-encode each record twice:
the body for its checksum, then the body plus ``"crc"`` for the line.
``_record_line`` encodes the body's keys before ``"crc"`` and those
after it once each and builds both from the two halves.  The line must
be byte-identical to the two-encoding formula — for keys on both sides
of ``"crc"``, on one side, on neither, and for non-ASCII values — and
must read back through the journal's own checksum test.
"""

import hashlib
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import canonical_json
from repro.runtime.checkpoint import CheckpointJournal, _record_line

pytestmark = pytest.mark.gate


def two_encodings(body):
    """The formula ``append`` used: checksum the body, then encode it
    again with the checksum added."""
    crc = hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()[:16]
    return canonical_json({**body, "crc": crc})


scalars = (st.none() | st.booleans() | st.integers(-2**60, 2**60)
           | st.floats(allow_nan=False, allow_infinity=False) | st.text())
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: keys that sort before "crc" ("a…", "cr", "c", "crb…"), after it
#: ("kind", "crd", "é…") and anything else text can be
keys = (st.sampled_from(["a", "c", "cr", "crb", "crcx", "crd", "kind", "é"])
        | st.text(max_size=6)).filter(lambda k: k != "crc")
bodies = st.dictionaries(keys, values, max_size=6)


@settings(max_examples=300, deadline=None)
@given(body=bodies)
@example(body={})
@example(body={"app": 1})
@example(body={"kind": "done"})
@example(body={"app": "ü", "kind": "‰", "zeta": [1.5, None]})
def test_a_line_is_the_two_encoding_formula(body):
    assert _record_line(body) == two_encodings(body)


@settings(max_examples=50, deadline=None)
@given(records=st.lists(st.dictionaries(
    keys.filter(lambda k: k != "kind"), values, max_size=4),
    min_size=1, max_size=5))
def test_appended_lines_read_back(records, tmp_path_factory):
    path = os.path.join(tmp_path_factory.mktemp("journal"), "j.jsonl")
    journal = CheckpointJournal(path)
    for fields in records:
        journal.append("task_done", **fields)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == [two_encodings({"kind": "task_done", **f})
                     for f in records]
    assert CheckpointJournal(path).records() == journal.records()

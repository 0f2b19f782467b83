"""Tests: the checkpoint journal's crash-consistency and value hashing."""

import json

import numpy as np
import pytest

from repro.errors import JournalCorruptError
from repro.runtime.checkpoint import (
    ApplicationCheckpoint,
    CheckpointJournal,
    decode_value,
    encode_value,
    value_hash,
)
from repro.scheduler import SiteScheduler
from repro.trace.tracer import Tracer

from tests.runtime.conftest import build_runtime, chain_afg


class TestJournalRoundTrip:
    def test_records_survive_a_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.append("schedule", application="app", table={"k": 1})
        journal.append("task_complete", task="t0", outputs=[])
        assert CheckpointJournal.read(path) == journal.records()
        # a second handle sees the same stream and appends after it
        reopened = CheckpointJournal(path)
        assert reopened.records() == journal.records()
        reopened.append("reschedule", task="t1", reason="host down")
        assert [r["kind"] for r in CheckpointJournal.read(path)] == [
            "schedule", "task_complete", "reschedule",
        ]

    def test_append_returns_bytes_and_accumulates(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        n = journal.append("schedule", application="app")
        assert n > 0
        assert journal.bytes_written == n
        assert (tmp_path / "journal.jsonl").stat().st_size == n

    def test_memory_only_journal_keeps_records_without_a_file(self):
        journal = CheckpointJournal(None)
        journal.append("schedule", application="app")
        assert len(journal.records()) == 1
        assert journal.bytes_written > 0


class TestNoJournal:
    @staticmethod
    def run_chain(journal):
        rt = build_runtime(tracer=Tracer())
        afg = chain_afg()
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        rt.sim.run_until_complete(
            rt.execute_process(afg, table, journal=journal)
        )
        checkpoints = [e for e in rt.tracer.events() if e.kind == "checkpoint"]
        return rt.stats, checkpoints

    def test_a_coordinator_without_a_journal_appends_nothing(self):
        """``journal=None`` is checkpointing's one off switch: no record,
        no byte, no ``checkpoint`` event — where a journal, run alike,
        records the schedule and every completed task."""
        stats, checkpoints = self.run_chain(None)
        assert stats.checkpoint_records == stats.checkpoint_bytes == 0
        assert checkpoints == []
        journal = CheckpointJournal(None)
        stats, checkpoints = self.run_chain(journal)
        assert stats.checkpoint_records == len(journal.records()) == 4
        assert len(checkpoints) == 4


class TestCrashConsistency:
    def test_torn_tail_is_dropped_on_read(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.append("schedule", application="app")
        journal.append("task_complete", task="t0", outputs=[])
        with open(path, "ab") as fh:
            fh.write(b'{"kind":"task_complete","task":"t1"')  # crash mid-append
        records = CheckpointJournal.read(path)
        assert [r["kind"] for r in records] == ["schedule", "task_complete"]
        assert records[1]["task"] == "t0"

    def test_reopening_truncates_the_torn_tail_before_appending(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        CheckpointJournal(path).append("schedule", application="app")
        good_size = (tmp_path / "journal.jsonl").stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"kind":"resched')
        reopened = CheckpointJournal(path)
        assert (tmp_path / "journal.jsonl").stat().st_size == good_size
        reopened.append("reschedule", task="t0", reason="host down")
        # the post-crash stream parses cleanly end to end
        assert [r["kind"] for r in CheckpointJournal.read(path)] == [
            "schedule", "reschedule",
        ]

    def test_corrupt_interior_line_aborts_the_read_loudly(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.append("schedule", application="app")
        journal.append("task_complete", task="t0", outputs=[])
        journal.append("task_complete", task="t1", outputs=[])
        lines = (tmp_path / "journal.jsonl").read_bytes().splitlines(True)
        # flip bits inside the middle record's body: its crc no longer matches
        lines[1] = lines[1].replace(b'"t0"', b'"tX"')
        (tmp_path / "journal.jsonl").write_bytes(b"".join(lines))
        # a valid record AFTER the bad line proves in-place damage, not
        # a torn append — resuming from a silently shortened history
        # would be wrong, so the read must refuse, loudly and typed
        with pytest.raises(JournalCorruptError) as excinfo:
            CheckpointJournal.read(path)
        assert excinfo.value.record_index == 1

    def test_corrupt_tail_line_is_truncated_quietly(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.append("schedule", application="app")
        journal.append("task_complete", task="t0", outputs=[])
        journal.append("task_complete", task="t1", outputs=[])
        lines = (tmp_path / "journal.jsonl").read_bytes().splitlines(True)
        # damage the LAST record only: indistinguishable from a torn
        # append mid-crash, so the valid prefix is still trustworthy
        lines[2] = lines[2].replace(b'"t1"', b'"tX"')
        (tmp_path / "journal.jsonl").write_bytes(b"".join(lines))
        records = CheckpointJournal.read(path)
        assert [r["kind"] for r in records] == ["schedule", "task_complete"]

    def test_every_line_is_valid_json_with_a_crc(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.append("schedule", application="app")
        journal.append("task_complete", task="t0", outputs=[])
        for raw in (tmp_path / "journal.jsonl").read_text().splitlines():
            assert "crc" in json.loads(raw)


class TestValueHashing:
    def test_hash_is_content_based_not_identity_based(self):
        a = [np.arange(6, dtype=np.float64).reshape(2, 3), {"x": 1.5}]
        b = [np.arange(6, dtype=np.float64).reshape(2, 3), {"x": 1.5}]
        assert value_hash(a) == value_hash(b)

    def test_hash_distinguishes_dtype_shape_and_value(self):
        base = np.arange(6, dtype=np.float64)
        assert value_hash(base) != value_hash(base.astype(np.float32))
        assert value_hash(base) != value_hash(base.reshape(2, 3))
        other = base.copy()
        other[0] += 1.0
        assert value_hash(base) != value_hash(other)

    def test_dict_hash_ignores_insertion_order(self):
        assert value_hash({"a": 1, "b": 2}) == value_hash({"b": 2, "a": 1})

    def test_scalar_types_are_tagged_apart(self):
        # 1 vs 1.0 vs True vs "1" must not collide
        hashes = {value_hash(v) for v in (1, 1.0, True, "1", b"1", None)}
        assert len(hashes) == 6

    @pytest.mark.gate
    def test_numpy_scalars_hash_like_python_scalars(self):
        """Not through ``repr``: ``repr(np.True_)`` is ``np.True_`` under
        numpy 2 and ``True`` under numpy 1."""
        for numpy_value, python_value in [
            (np.bool_(True), True), (np.bool_(False), False),
            (np.int32(-3), -3), (np.float32(0.5), 0.5),
        ]:
            assert value_hash(numpy_value) == value_hash(python_value)
        assert value_hash([np.bool_(True)]) == value_hash([True])

    def test_encode_decode_round_trips_arrays(self):
        value = {"grid": np.linspace(0.0, 1.0, 7), "meta": ("ok", 3)}
        decoded = decode_value(encode_value(value))
        np.testing.assert_array_equal(decoded["grid"], value["grid"])
        assert decoded["meta"] == value["meta"]
        assert value_hash(decoded) == value_hash(value)


class TestApplicationCheckpoint:
    def test_journal_without_schedule_record_is_rejected(self):
        with pytest.raises(ValueError, match="no schedule record"):
            ApplicationCheckpoint.from_records([])
        with pytest.raises(ValueError, match="no schedule record"):
            ApplicationCheckpoint.from_records(
                [{"kind": "task_complete", "task": "t0"}]
            )

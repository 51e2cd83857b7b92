"""Durability primitives: WAL append/read, atomic snapshots, scanning."""

import json
import os

import pytest

from repro.errors import InvalidParameterError
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    EVENT_LOG_NAME,
    append_event,
    checkpoint_path,
    latest_checkpoint,
    read_events,
    write_checkpoint,
)
from repro.service.events import ServiceEvent


def _events(k):
    return [ServiceEvent(seq=i, kind="flow", flows=5) for i in range(k)]


class TestEventLog:
    def test_append_read_round_trip(self, tmp_path):
        events = _events(7)
        for ev in events:
            append_event(tmp_path, ev)
        assert read_events(tmp_path) == events

    def test_missing_log_reads_empty(self, tmp_path):
        assert read_events(tmp_path) == []

    def test_truncated_tail_dropped(self, tmp_path):
        for ev in _events(5):
            append_event(tmp_path, ev)
        path = tmp_path / EVENT_LOG_NAME
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the final line mid-record
        assert read_events(tmp_path) == _events(4)

    def test_corrupt_interior_line_raises(self, tmp_path):
        for ev in _events(4):
            append_event(tmp_path, ev)
        path = tmp_path / EVENT_LOG_NAME
        lines = path.read_text().splitlines()
        lines[1] = '{"seq": 1, "kind":'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=r"events\.jsonl line 2: not JSON"):
            read_events(tmp_path)

    def test_record_without_kind_raises(self, tmp_path):
        for ev in _events(4):
            append_event(tmp_path, ev)
        path = tmp_path / EVENT_LOG_NAME
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({"seq": 2, "flows": 5})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            InvalidParameterError, match=r"events\.jsonl line 3: not an event record"
        ):
            read_events(tmp_path)

    def test_no_fsync_still_consistent(self, tmp_path):
        for ev in _events(3):
            append_event(tmp_path, ev, fsync=False)
        assert len(read_events(tmp_path)) == 3


class TestCheckpoints:
    def test_write_then_latest(self, tmp_path):
        write_checkpoint(tmp_path, 10, {"x": 1}, knobs={"seed": 7})
        write_checkpoint(tmp_path, 20, {"x": 2}, knobs={"seed": 7})
        seq, record = latest_checkpoint(tmp_path)
        assert seq == 20
        assert record["schema"] == CHECKPOINT_SCHEMA
        assert record["state"] == {"x": 2}
        assert record["knobs"] == {"seed": 7}

    def test_empty_dir_returns_none(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None

    def test_corrupt_newest_skipped(self, tmp_path):
        write_checkpoint(tmp_path, 5, {"x": 1})
        checkpoint_path(tmp_path, 9).write_text("{ not json")
        seq, record = latest_checkpoint(tmp_path)
        assert seq == 5 and record["state"] == {"x": 1}

    def test_foreign_schema_skipped(self, tmp_path):
        write_checkpoint(tmp_path, 3, {"x": 1})
        checkpoint_path(tmp_path, 8).write_text(
            json.dumps({"schema": "other/1", "seq": 8, "state": {}})
        )
        assert latest_checkpoint(tmp_path)[0] == 3

    def test_seq_name_mismatch_skipped(self, tmp_path):
        write_checkpoint(tmp_path, 4, {"x": 1})
        rec = json.loads(checkpoint_path(tmp_path, 4).read_text())
        rec["seq"] = 99
        checkpoint_path(tmp_path, 7).write_text(json.dumps(rec))
        assert latest_checkpoint(tmp_path)[0] == 4

    def test_orphan_temp_file_ignored(self, tmp_path):
        write_checkpoint(tmp_path, 2, {"x": 1})
        (tmp_path / ".checkpoint-abc.tmp").write_text("partial")
        assert latest_checkpoint(tmp_path)[0] == 2

    def test_negative_seq_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            checkpoint_path(tmp_path, -1)

    def test_write_is_atomic_no_temp_left(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"x": 1})
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

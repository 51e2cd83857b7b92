"""Crash-consistent durability: versioned snapshots + append-only log.

Two artifacts live in the service directory:

* ``events.jsonl`` — the append-only **event log**, one
  :meth:`~repro.service.events.ServiceEvent.to_record` line per event,
  written (flushed, optionally fsynced) *before* the event is applied.
  The log is the source of truth: any state the process held in memory
  when it died is reconstructible as ``checkpoint ⊕ log tail``.
* ``checkpoint-<seq>.json`` — **versioned snapshots** of the engine
  state after ``seq`` events.  Each is written to a temp file in the
  same directory, flushed, fsynced, then atomically renamed into place
  (``os.replace``), so a reader never observes a partial checkpoint: a
  kill mid-write leaves at most an orphaned temp file that
  :func:`latest_checkpoint` ignores.

The snapshot schema follows the :mod:`repro.obs.export` manifest
conventions — ``schema`` tag, creation timestamp, git sha — so every
checkpoint is self-describing.  All formats are JSON; pickle and friends
are banned from durable paths by lint rule R011 (a pickle checkpoint
couples recovery to code layout and silently breaks across versions).

A truncated *last* line in the event log (the classic
killed-mid-append) is tolerated: :func:`read_events` drops it, which is
exactly right — an event that never finished reaching the log was never
applied either.  Any other unreadable line is corruption and raises
:class:`~repro.errors.InvalidParameterError` naming the file and line.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import InvalidParameterError
from ..obs.export import _git_sha
from .events import ServiceEvent

__all__ = [
    "CHECKPOINT_SCHEMA",
    "EVENT_LOG_NAME",
    "append_event",
    "read_events",
    "write_checkpoint",
    "latest_checkpoint",
    "checkpoint_path",
]

#: Format tag written into every checkpoint (bump on breaking changes).
CHECKPOINT_SCHEMA = "repro-khop-checkpoint/1"

#: The append-only event log's file name inside the service directory.
EVENT_LOG_NAME = "events.jsonl"

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.json$")


def checkpoint_path(directory: Union[str, Path], seq: int) -> Path:
    """The snapshot path for event cursor ``seq``."""
    if seq < 0:
        raise InvalidParameterError(f"seq must be >= 0, got {seq}")
    return Path(directory) / f"checkpoint-{seq:08d}.json"


def append_event(
    directory: Union[str, Path], event: ServiceEvent, *, fsync: bool = True
) -> Path:
    """Append one event to the log, durably, *before* it is applied.

    Returns the log path.  ``fsync=False`` trades the power-loss
    guarantee for speed (kill -9 consistency is kept either way — the
    write is a single buffered line and a truncated tail is tolerated).
    """
    path = Path(directory) / EVENT_LOG_NAME
    line = json.dumps(event.to_record(), sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    return path


def read_events(directory: Union[str, Path]) -> list[ServiceEvent]:
    """Parse the event log back, dropping a truncated trailing line.

    Raises :class:`~repro.errors.InvalidParameterError` naming the file
    and line for an earlier line that is not JSON, or for any line that
    is not an event record.
    """
    path = Path(directory) / EVENT_LOG_NAME
    if not path.exists():
        return []
    events: list[ServiceEvent] = []
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            if i >= len(lines) - 2:  # the killed-mid-append tail
                break
            raise InvalidParameterError(
                f"{path} line {i + 1}: not JSON ({exc.msg})"
            ) from exc
        try:
            events.append(ServiceEvent.from_record(rec))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"{path} line {i + 1}: not an event record ({exc!r})"
            ) from exc
    return events


def write_checkpoint(
    directory: Union[str, Path],
    seq: int,
    state: dict[str, Any],
    *,
    knobs: Optional[dict[str, Any]] = None,
) -> Path:
    """Atomically write the snapshot for event cursor ``seq``.

    ``state`` is the engine's JSON-serializable state dict;
    ``knobs`` the run configuration, recorded manifest-style.  The write
    is temp-file + fsync + ``os.replace``, so concurrent/interrupted
    writers can never expose a partial snapshot under the final name.
    """
    directory = Path(directory)
    target = checkpoint_path(directory, seq)
    record = {
        "schema": CHECKPOINT_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "seq": seq,
        "knobs": dict(sorted((knobs or {}).items())),
        "state": state,
    }
    payload = json.dumps(record, sort_keys=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".checkpoint-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def latest_checkpoint(
    directory: Union[str, Path],
) -> Optional[tuple[int, dict[str, Any]]]:
    """Load the newest *valid* snapshot as ``(seq, record)``.

    Scans for ``checkpoint-*.json`` names in descending cursor order and
    returns the first that parses and carries the expected schema tag;
    corrupt or foreign files are skipped, orphaned temp files never
    match the name pattern at all.  Returns None when no valid snapshot
    exists (fresh directory — the caller starts from the log alone).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        (
            (int(m.group(1)), directory / name)
            for name in os.listdir(directory)
            if (m := _CHECKPOINT_RE.match(name))
        ),
        reverse=True,
    )
    for seq, path in candidates:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if record.get("schema") != CHECKPOINT_SCHEMA:
            continue
        if record.get("seq") != seq:
            continue
        return seq, record
    return None

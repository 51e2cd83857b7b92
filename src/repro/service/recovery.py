"""Restore-and-replay: deterministic recovery from the durable state.

:func:`recover` is the supervisor's restart path.  It loads the newest
valid snapshot (:func:`~repro.service.checkpoint.latest_checkpoint`),
reconstructs a live engine from it
(:meth:`~repro.service.engine.ServiceEngine.from_state`), and replays
the event-log tail — every logged event the killed process applied (or
was about to apply) past the snapshot cursor.  Because

* the log is written ahead of application (a truncated tail line is an
  event that was never applied, and
  :func:`~repro.service.checkpoint.read_events` drops it),
* handlers draw randomness only from the checkpointed PCG64 stream, in
  a fixed per-event order, and
* the restored backbone equals the live one by the ``n_struct``
  reconstruction argument (see :mod:`repro.service.engine`),

the recovered engine is bit-identical to one that was never killed:
same walks, same delivered fractions, same RNG stream position —
:meth:`~repro.service.engine.ServiceEngine.fingerprint` equality is the
tested contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from ..errors import InvalidParameterError
from ..obs import counter as obs_counter
from ..obs import span
from .checkpoint import checkpoint_path, latest_checkpoint, read_events
from .engine import ServiceConfig, ServiceEngine
from .events import ServiceEvent

__all__ = ["recover", "replay_events"]


def replay_events(
    engine: ServiceEngine, events: Sequence[ServiceEvent]
) -> int:
    """Re-apply the log tail past the engine's cursor; returns the count.

    Events before the cursor (already inside the restored snapshot) are
    skipped; the rest are applied with logging and checkpointing off —
    the log already holds them, and re-snapshotting mid-replay would
    only churn identical bytes.  A seq gap means the log and snapshot
    disagree (foreign or hand-edited directory) and raises rather than
    silently diverging.
    """
    replayed = 0
    for ev in events:
        if ev.seq < engine.cursor:
            continue
        if ev.seq != engine.cursor:
            raise InvalidParameterError(
                f"event log gap: expected seq {engine.cursor}, got {ev.seq}"
            )
        engine.apply(ev, log=False, checkpoint=False)
        replayed += 1
    return replayed


def recover(
    directory: Union[str, Path],
    *,
    config: Optional[ServiceConfig] = None,
) -> ServiceEngine:
    """Bring a killed service back to its exact pre-kill state.

    Restores the newest valid checkpoint (or starts fresh when none
    exists yet) and replays the event-log tail.  ``config`` defaults to
    the knobs recorded in the checkpoint; for a checkpoint-less
    directory it must be supplied.  A checkpoint whose knobs or state
    cannot be restored raises
    :class:`~repro.errors.InvalidParameterError` naming the file.
    """
    directory = Path(directory)
    snapshot = latest_checkpoint(directory)
    events = read_events(directory)
    with span(
        "service.recover",
        checkpoint=-1 if snapshot is None else snapshot[0],
        logged=len(events),
    ):
        if snapshot is None:
            if config is None:
                raise InvalidParameterError(
                    f"no checkpoint under {directory} and no config given"
                )
            engine = ServiceEngine(config, directory)
        else:
            seq, record = snapshot
            try:
                if config is None:
                    config = ServiceConfig.from_record(record["knobs"])
                engine = ServiceEngine.from_state(
                    config, record["state"], directory
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"{checkpoint_path(directory, seq)}: cannot restore "
                    f"({exc!r})"
                ) from exc
        replayed = replay_events(engine, events)
    obs_counter("service.recoveries").add()
    obs_counter("service.events_replayed").add(replayed)
    return engine

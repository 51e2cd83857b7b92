"""Restore-and-replay determinism: the kill-and-recover contract (S3).

The tested property: for *any* kill point, recovering from the durable
directory and replaying the log tail yields an engine bit-identical to
one that was never killed — same graph, cover, backbone link set, walk
digests, delivered fractions, and RNG stream position
(:meth:`ServiceEngine.fingerprint` equality).
"""

import pytest

from repro.errors import InvalidParameterError
from repro.service.checkpoint import (
    EVENT_LOG_NAME,
    latest_checkpoint,
    write_checkpoint,
)
from repro.service.engine import ServiceConfig, ServiceEngine, _initial_topology
from repro.service.events import ServiceEvent, seeded_schedule
from repro.service.recovery import recover, replay_events


def _config(**kw):
    base = dict(
        n=30, degree=8.0, k=2, seed=5, checkpoint_every=6, base_loss=0.1
    )
    base.update(kw)
    return ServiceConfig(**base)


def _schedule(cfg, events):
    return seeded_schedule(
        _initial_topology(cfg), events=events, seed=cfg.seed,
        flows_per_batch=15,
    )


def _uninterrupted(cfg, sched):
    engine = ServiceEngine(cfg)
    engine.apply_all(sched)
    return engine.fingerprint()


class TestRoundTripAcrossBackends:
    @pytest.mark.parametrize("backend", ["lazy", "landmark"])
    def test_state_round_trip(self, backend, tmp_path):
        cfg = _config(backend=backend, seed=7)
        sched = _schedule(cfg, 18)
        engine = ServiceEngine(cfg, tmp_path)
        engine.apply_all(sched)
        restored = ServiceEngine.from_state(
            cfg, engine.state_dict(), None
        )
        assert restored.fingerprint() == engine.fingerprint()

    @pytest.mark.parametrize("backend", ["lazy", "landmark"])
    def test_restored_engine_continues_identically(self, backend, tmp_path):
        cfg = _config(backend=backend, seed=9)
        sched = _schedule(cfg, 24)
        engine = ServiceEngine(cfg, tmp_path)
        engine.apply_all(sched[:12])
        restored = ServiceEngine.from_state(cfg, engine.state_dict(), None)
        for ev in sched[12:]:
            engine.apply(ev)
            restored.apply(ev, log=False, checkpoint=False)
        assert restored.fingerprint() == engine.fingerprint()


class TestKillAndRecover:
    def test_replay_identity_at_every_prefix(self, tmp_path):
        """Kill after each event; recovery must always converge."""
        cfg = _config(seed=3)
        events = 24
        sched = _schedule(cfg, events)
        reference = _uninterrupted(cfg, sched)
        for kill in range(events + 1):
            d = tmp_path / f"kill-{kill:02d}"
            engine = ServiceEngine(cfg, d)
            engine.apply_all(sched[:kill])
            del engine  # the process dies here
            revived = recover(d, config=cfg)
            for ev in sched[revived.cursor:]:
                revived.apply(ev)
            assert revived.fingerprint() == reference, f"kill point {kill}"

    def test_torn_log_tail_recovers_to_previous_event(self, tmp_path):
        cfg = _config(seed=11)
        sched = _schedule(cfg, 15)
        engine = ServiceEngine(cfg, tmp_path)
        engine.apply_all(sched)
        log = tmp_path / EVENT_LOG_NAME
        log.write_bytes(log.read_bytes()[:-9])  # killed mid-append
        revived = recover(tmp_path)
        assert revived.cursor == 14
        for ev in sched[14:]:
            revived.apply(ev)
        assert revived.fingerprint() == _uninterrupted(cfg, sched)

    def test_recover_without_checkpoint_replays_from_scratch(self, tmp_path):
        cfg = _config(seed=13, checkpoint_every=0)
        sched = _schedule(cfg, 10)
        engine = ServiceEngine(cfg, tmp_path)
        engine.apply_all(sched)
        assert latest_checkpoint(tmp_path) is None
        revived = recover(tmp_path, config=cfg)
        assert revived.fingerprint() == engine.fingerprint()

    def test_recover_reads_config_from_checkpoint(self, tmp_path):
        cfg = _config(seed=17)
        sched = _schedule(cfg, 12)
        engine = ServiceEngine(cfg, tmp_path)
        engine.apply_all(sched)
        revived = recover(tmp_path)  # no config handed in
        assert revived.config == cfg
        assert revived.fingerprint() == engine.fingerprint()

    def test_empty_directory_needs_config(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            recover(tmp_path)

    def test_log_gap_detected(self, tmp_path):
        cfg = _config(seed=19)
        engine = ServiceEngine(cfg)
        tail = [ServiceEvent(seq=5, kind="flow", flows=3)]
        with pytest.raises(InvalidParameterError):
            replay_events(engine, tail)

    @staticmethod
    def _rewrite_newest_checkpoint(directory, edit):
        """Apply ``edit`` to the newest checkpoint record and re-sign it,
        so recovery gets past the checksum to the edited field."""
        seq, record = latest_checkpoint(directory)
        edit(record)
        return write_checkpoint(
            directory, seq, record["state"], knobs=record["knobs"]
        )

    def test_checkpoint_missing_state_field_raises(self, tmp_path):
        cfg = _config(seed=29)
        ServiceEngine(cfg, tmp_path).apply_all(_schedule(cfg, 14))
        path = self._rewrite_newest_checkpoint(
            tmp_path, lambda rec: rec["state"].pop("dead")
        )
        with pytest.raises(InvalidParameterError, match=path.name):
            recover(tmp_path)

    def test_checkpoint_naming_unknown_backend_raises(self, tmp_path):
        cfg = _config(seed=31)
        ServiceEngine(cfg, tmp_path).apply_all(_schedule(cfg, 14))
        path = self._rewrite_newest_checkpoint(
            tmp_path, lambda rec: rec["knobs"].update(backend="dense")
        )
        with pytest.raises(InvalidParameterError, match=path.name):
            recover(tmp_path)

    def test_rng_stream_position_survives(self, tmp_path):
        """The recovered stream must continue, not restart."""
        cfg = _config(seed=23)
        sched = _schedule(cfg, 16)
        engine = ServiceEngine(cfg, tmp_path)
        engine.apply_all(sched)
        revived = recover(tmp_path)
        a = engine.rng.integers(0, 2**31 - 1, size=4)
        b = revived.rng.integers(0, 2**31 - 1, size=4)
        assert a.tolist() == b.tolist()

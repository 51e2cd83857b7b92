"""Seeded byte-level corruption of the durable state never escapes untyped.

One small service run leaves an event log and four checkpoints.  Each
case corrupts one of those files once — a byte flip, a truncation or an
insertion — and calls :func:`~repro.service.recovery.recover` on a copy
of the directory.  The contract: ``recover`` returns an engine or raises
:class:`~repro.errors.InvalidParameterError`, never another exception,
and a returned engine is the clean directory's.  Every checkpoint
carries a CRC-32 of its record, so a flip that still parses as JSON is
skipped like any corrupt file, and the run ends on a checkpoint, so the
log holds no tail past it that a flipped event could change.
"""

import shutil
from collections import Counter

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.service.engine import ServiceConfig, run_service
from repro.service.recovery import recover

CASES = 200


@pytest.fixture(scope="module")
def service_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("service")
    config = ServiceConfig(n=60, seed=3, checkpoint_every=10, fsync=False)
    run_service(config, events=40, directory=directory, flows_per_batch=20)
    return directory


def _corrupt(data: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    kind = ("flip", "truncate", "insert")[int(rng.integers(3))]
    at = int(rng.integers(len(data)))
    if kind == "flip":
        byte = data[at] ^ int(rng.integers(1, 256))
        return kind, data[:at] + bytes([byte]) + data[at + 1 :]
    if kind == "truncate":
        return kind, data[:at]
    junk = rng.integers(0, 256, size=int(rng.integers(1, 5)), dtype=np.uint8)
    return kind, data[:at] + junk.tobytes() + data[at:]


def test_recover_raises_only_typed_errors(service_dir, tmp_path):
    files = sorted(p.name for p in service_dir.iterdir())
    assert "events.jsonl" in files and len(files) == 5
    shutil.copytree(service_dir, tmp_path / "clean")
    clean = recover(tmp_path / "clean").fingerprint()
    rng = np.random.default_rng(11)
    outcomes: Counter = Counter()
    for case in range(CASES):
        target = files[int(rng.integers(len(files)))]
        copy = tmp_path / f"case{case}"
        shutil.copytree(service_dir, copy)
        kind, data = _corrupt((copy / target).read_bytes(), rng)
        (copy / target).write_bytes(data)
        try:
            engine = recover(copy)
        except InvalidParameterError:
            outcomes["typed"] += 1
        except Exception as exc:  # the contract under test
            pytest.fail(f"case {case}: {kind} of {target} raised {exc!r}")
        else:
            if engine.fingerprint() != clean:
                pytest.fail(f"case {case}: {kind} of {target} restored "
                            "a different engine")
            outcomes["recovered"] += 1
        shutil.rmtree(copy)
    # Both branches of the contract are exercised.
    assert outcomes["typed"] > 0 and outcomes["recovered"] > 0

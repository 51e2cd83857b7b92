"""Seeded traffic workload generators.

The ROADMAP's north star is "heavy traffic from millions of users"; this
module turns that into concrete, reproducible flow batches.  A
:class:`Workload` is a struct-of-arrays — parallel ``sources`` /
``targets`` / ``demands`` vectors — so generating, filtering and
accounting for 10^4+ concurrent flows stays vectorized end to end; the
batch router (:mod:`repro.traffic.router`) consumes it directly.

Four generator families cover the classic ad hoc traffic shapes:

* :func:`uniform_pairs` — independent random source/destination pairs,
  the stretch-sampling workload generalized to bulk;
* :func:`cbr_flows` — few persistent connections, many packets each
  (constant-bit-rate sessions);
* :func:`hotspot` — convergecast onto a handful of sink nodes (data
  collection, the worst case for backbone congestion);
* :func:`gossip` — every node talks to a few random peers (membership /
  state-sync chatter).

All generators are deterministic in ``seed``; :data:`WORKLOADS` maps the
CLI names onto them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "Workload",
    "uniform_pairs",
    "cbr_flows",
    "hotspot",
    "gossip",
    "WORKLOADS",
    "make_workload",
]


@dataclass(frozen=True)
class Workload:
    """A batch of concurrent flows as parallel arrays.

    Attributes:
        name: generator provenance (e.g. ``"uniform"``).
        n: node-ID space the endpoints are drawn from.
        sources / targets: per-flow endpoints, ``sources[i] != targets[i]``.
        demands: per-flow packet counts (>= 1).
        seed: RNG seed that produced the batch (None for hand-built).
    """

    name: str
    n: int
    sources: np.ndarray
    targets: np.ndarray
    demands: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        arrays = []
        for name in ("sources", "targets", "demands"):
            given = np.asarray(getattr(self, name))
            if given.dtype.kind not in "iu":
                raise InvalidParameterError(
                    f"{name} must be integers, got dtype {given.dtype}"
                )
            # Private copy: freezing must never make the caller's array
            # read-only behind their back.
            arrays.append(np.array(given, dtype=np.int64))
        src, dst, dem = arrays
        if not (src.shape == dst.shape == dem.shape) or src.ndim != 1:
            raise InvalidParameterError(
                "sources/targets/demands must be parallel 1-d arrays"
            )
        if src.size:
            if int(src.min()) < 0 or int(dst.min()) < 0:
                raise InvalidParameterError("flow endpoints must be >= 0")
            if int(src.max()) >= self.n or int(dst.max()) >= self.n:
                raise InvalidParameterError(f"flow endpoints out of range for n={self.n}")
            if (src == dst).any():
                raise InvalidParameterError("flows must have distinct endpoints")
            if (dem < 1).any():
                raise InvalidParameterError("flow demands must be >= 1")
        for name, arr in (("sources", src), ("targets", dst), ("demands", dem)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_flows(self) -> int:
        """Number of concurrent flows."""
        return int(self.sources.size)

    @property
    def total_packets(self) -> int:
        """Total offered packets (sum of demands)."""
        return int(self.demands.sum())

    def restrict(self, alive: np.ndarray) -> "Workload":
        """The sub-workload whose endpoints are all alive.

        Args:
            alive: boolean mask of length ``n``; flows touching a dead
                endpoint are dropped (their traffic is simply lost, as it
                would be in the network).
        """
        mask = np.asarray(alive, dtype=bool)
        if mask.shape != (self.n,):
            raise InvalidParameterError(
                f"alive mask must have shape ({self.n},), got {mask.shape}"
            )
        return self.subset(mask[self.sources] & mask[self.targets])

    def subset(self, keep: np.ndarray | slice) -> "Workload":
        """The flows ``keep`` selects (a boolean mask, indices or a slice)."""
        return Workload(
            name=self.name,
            n=self.n,
            sources=self.sources[keep],
            targets=self.targets[keep],
            demands=self.demands[keep],
            seed=self.seed,
        )

    def delivered_fraction(self, labels: np.ndarray) -> float:
        """Fraction of flows whose endpoints share a connected component.

        Args:
            labels: per-node component labels, length ``n`` (any integer
                labelling — only equality is consulted).

        The mobility loop's *delivery* metric: on a disconnected
        snapshot, flows whose endpoints landed in different components
        are undeliverable no matter how they are routed.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.n,):
            raise InvalidParameterError(
                f"component labels must have shape ({self.n},), got {labels.shape}"
            )
        if self.num_flows == 0:
            return 1.0
        return float((labels[self.sources] == labels[self.targets]).mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload({self.name!r}, flows={self.num_flows}, "
            f"packets={self.total_packets})"
        )


def _check_n(n: int) -> None:
    if n < 2:
        raise InvalidParameterError(f"workloads need n >= 2 nodes, got {n}")


def _distinct_targets(
    rng: np.random.Generator, sources: np.ndarray, n: int
) -> np.ndarray:
    """Uniform targets with ``targets != sources``, by vectorized redraw."""
    targets = rng.integers(0, n, size=sources.size, dtype=np.int64)
    clash = np.flatnonzero(targets == sources)
    while clash.size:
        targets[clash] = rng.integers(0, n, size=clash.size, dtype=np.int64)
        clash = clash[targets[clash] == sources[clash]]
    return targets


def uniform_pairs(
    n: int, flows: int, *, seed: int, demand: int = 1
) -> Workload:
    """``flows`` independent uniform (source, target) pairs."""
    _check_n(n)
    if flows < 1:
        raise InvalidParameterError(f"flows must be >= 1, got {flows}")
    if demand < 1:
        raise InvalidParameterError(f"demand must be >= 1, got {demand}")
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=flows, dtype=np.int64)
    targets = _distinct_targets(rng, sources, n)
    return Workload(
        name="uniform",
        n=n,
        sources=sources,
        targets=targets,
        demands=np.full(flows, demand, dtype=np.int64),
        seed=seed,
    )


def cbr_flows(
    n: int, connections: int, *, packets: int = 64, seed: int
) -> Workload:
    """Few persistent connections, ``packets`` packets each (CBR sessions)."""
    _check_n(n)
    if connections < 1:
        raise InvalidParameterError(f"connections must be >= 1, got {connections}")
    if packets < 1:
        raise InvalidParameterError(f"packets must be >= 1, got {packets}")
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=connections, dtype=np.int64)
    targets = _distinct_targets(rng, sources, n)
    return Workload(
        name="cbr",
        n=n,
        sources=sources,
        targets=targets,
        demands=np.full(connections, packets, dtype=np.int64),
        seed=seed,
    )


def hotspot(
    n: int, flows: int, *, sinks: int = 1, seed: int, demand: int = 1
) -> Workload:
    """Convergecast: every flow targets one of a few random sink nodes."""
    _check_n(n)
    if flows < 1:
        raise InvalidParameterError(f"flows must be >= 1, got {flows}")
    if not (1 <= sinks < n):
        raise InvalidParameterError(f"sinks must be in 1..{n - 1}, got {sinks}")
    if demand < 1:
        raise InvalidParameterError(f"demand must be >= 1, got {demand}")
    rng = np.random.default_rng(seed)
    sink_ids = rng.choice(n, size=sinks, replace=False).astype(np.int64)
    targets = sink_ids[rng.integers(0, sinks, size=flows)]
    sources = _distinct_targets(rng, targets, n)  # sources != their sink
    return Workload(
        name="hotspot",
        n=n,
        sources=sources,
        targets=targets,
        demands=np.full(flows, demand, dtype=np.int64),
        seed=seed,
    )


def gossip(n: int, *, fanout: int = 3, seed: int) -> Workload:
    """Every node sends one packet to ``fanout`` random distinct peers."""
    _check_n(n)
    if not (1 <= fanout < n):
        raise InvalidParameterError(f"fanout must be in 1..{n - 1}, got {fanout}")
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(n, dtype=np.int64), fanout)
    # Draw fanout peers per node without replacement: offset draws in
    # 1..n-1 modulo n can never land back on the source.
    offsets = np.empty((n, fanout), dtype=np.int64)
    for i in range(n):
        offsets[i] = rng.choice(n - 1, size=fanout, replace=False) + 1
    targets = (sources.reshape(n, fanout) + offsets).ravel() % n
    return Workload(
        name="gossip",
        n=n,
        sources=sources,
        targets=targets,
        demands=np.ones(n * fanout, dtype=np.int64),
        seed=seed,
    )


def _make_uniform(n: int, flows: int, seed: int) -> Workload:
    return uniform_pairs(n, flows, seed=seed)


def _make_cbr(n: int, flows: int, seed: int) -> Workload:
    # `flows` is the total packet budget: spread over ~flows/64 sessions.
    connections = max(1, flows // 64)
    return cbr_flows(n, connections, packets=64, seed=seed)


def _make_hotspot(n: int, flows: int, seed: int) -> Workload:
    return hotspot(n, flows, sinks=max(1, n // 100), seed=seed)


def _make_gossip(n: int, flows: int, seed: int) -> Workload:
    return gossip(n, fanout=min(n - 1, max(1, flows // n)), seed=seed)


#: CLI name -> ``(n, flows, seed) -> Workload`` factory.
WORKLOADS: dict[str, Callable[[int, int, int], Workload]] = {
    "uniform": _make_uniform,
    "cbr": _make_cbr,
    "hotspot": _make_hotspot,
    "gossip": _make_gossip,
}


def make_workload(kind: str, n: int, flows: int, *, seed: int) -> Workload:
    """Build a named workload sized to roughly ``flows`` offered flows."""
    try:
        factory = WORKLOADS[kind]
    except KeyError:
        raise InvalidParameterError(
            f"unknown workload {kind!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return factory(n, flows, seed)

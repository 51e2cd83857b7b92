"""Process-local metrics registry: counters, gauges, log-bucket histograms.

One registry per process (:func:`registry`), fed by the engine's existing
stats sources — :class:`~repro.net.oracle.OracleStats` snapshots, the
router's inheritance counter dicts, :func:`~repro.maintenance.repair.repair`
action outcomes, :func:`~repro.faults.delivery.deliver`'s tx/rx ledgers.
Every source keeps its dataclass API; the registry is a *second* sink the
instrumented call sites publish into, never a replacement.

The whole layer is gated on one switch (:func:`enabled` /
:func:`set_enabled`, initialized from the ``REPRO_TRACE`` environment
variable).  While disabled, the module-level helpers (:func:`counter`,
:func:`gauge`, :func:`histogram`) hand back shared no-op instruments and
the registry stays empty — the disabled fast path is one flag test plus
one attribute call per publish site, cheap enough to leave compiled into
the hot engine paths.

Zero third-party dependencies by design: the observability substrate must
import (and fail) independently of numpy/scipy, so it can wrap anything.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Mapping, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "enabled",
    "set_enabled",
    "registry",
    "reset",
    "publish_counters",
    "publish_oracle_stats",
]

#: Fixed log-spaced histogram bucket upper bounds (powers of 4 from 1 to
#: ~10^9) — wide enough for packet counts, byte sizes and microsecond
#: durations alike, small enough to render as one ASCII row each.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0**i for i in range(16))


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increase the counter by ``n`` (must be >= 0)."""
        if n < 0:
            raise ValueError(f"counter {self.name}: negative add {n}")
        self.value += n


class Gauge:
    """A point-in-time value; :meth:`set` overwrites, no history."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        self.value = float(value)


class Histogram:
    """Fixed log-spaced-bucket histogram with sum and count.

    Buckets are cumulative-style upper bounds (``value <= bound`` lands in
    that bucket's bin; anything beyond the last bound lands in the
    implicit overflow bin).  The bounds are fixed at construction so two
    snapshots of the same histogram are always mergeable/diffable.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if list(bounds) != sorted(bounds) or len(bounds) < 1:
            raise ValueError(f"histogram {name}: bounds must ascend")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow bin
        self.total = 0.0
        self.count = 0

    def _bin(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect, no imports)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[self._bin(value)] += 1
        self.total += value
        self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples."""
        for v in values:
            self.observe(v)

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class _NoopInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = "<disabled>"
    value = 0

    def add(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """Name -> instrument maps plus snapshot/diff helpers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.setdefault(name, Gauge(name))
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram under ``name`` (bounds apply on first use only)."""
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.setdefault(name, Histogram(name, bounds))
        return h

    def __len__(self) -> int:
        """Total registered instruments (0 = nothing ever published)."""
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def counter_values(self) -> dict[str, int]:
        """Current counter values (the span layer diffs two of these)."""
        return {name: c.value for name, c in self.counters.items()}

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-ready dump of every instrument, sorted by name."""
        return {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name].value for name in sorted(self.gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def clear(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


_REGISTRY = MetricsRegistry()

#: The single observability switch.  ``REPRO_TRACE=1`` (any value except
#: ``0``/``""``) enables metrics + tracing at import; the CLI's
#: ``--trace`` flag flips it per run.
_ENABLED: bool = os.environ.get("REPRO_TRACE", "0") not in ("", "0")


def enabled() -> bool:
    """Whether the observability layer is collecting."""
    return _ENABLED


def set_enabled(on: bool) -> None:
    """Flip the observability switch (metrics *and* spans)."""
    global _ENABLED
    _ENABLED = bool(on)


def registry() -> MetricsRegistry:
    """The process-local registry (empty while disabled)."""
    return _REGISTRY


def reset() -> None:
    """Clear every registered instrument (tests and fresh CLI runs)."""
    _REGISTRY.clear()


def counter(name: str) -> Union[Counter, _NoopInstrument]:
    """Registry counter while enabled, shared no-op instrument otherwise."""
    return _REGISTRY.counter(name) if _ENABLED else _NOOP


def gauge(name: str) -> Union[Gauge, _NoopInstrument]:
    """Registry gauge while enabled, shared no-op instrument otherwise."""
    return _REGISTRY.gauge(name) if _ENABLED else _NOOP


def histogram(
    name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
) -> Union[Histogram, _NoopInstrument]:
    """Registry histogram while enabled, no-op instrument otherwise."""
    return _REGISTRY.histogram(name, bounds) if _ENABLED else _NOOP


def publish_counters(prefix: str, values: Mapping[str, int]) -> None:
    """Add a dict of per-operation counter deltas under ``prefix.*``.

    The natural sink for the router/oracle inheritance stats dicts, whose
    values are already per-event deltas.  No-op while disabled.
    """
    if not _ENABLED:
        return
    for key, val in values.items():
        _REGISTRY.counter(f"{prefix}.{key}").add(int(val))


def publish_oracle_stats(stats: object, prefix: str = "oracle") -> None:
    """Publish one :class:`~repro.net.oracle.OracleStats`-shaped snapshot.

    Cumulative per-oracle totals land as **gauges** (``set`` is idempotent,
    so re-publishing a later snapshot of the same oracle never
    double-counts), keyed by backend: ``oracle.lazy.row_hits`` etc.  Typed
    as ``object`` to keep this module numpy/dataclass-agnostic — any
    object with the stats field names works.
    """
    if not _ENABLED:
        return
    backend = getattr(stats, "backend", "unknown")
    for field in (
        "rows_computed",
        "row_hits",
        "balls_computed",
        "ball_hits",
        "cached_bytes",
        "peak_cached_bytes",
        "rows_inherited",
        "balls_inherited",
        "rows_patched",
        "batched_sweeps",
        "pair_queries",
        "label_entries",
        "paths_computed",
        "path_hits",
        "sweep_levels",
        "lineage_rows_computed",
        "lineage_row_hits",
        "lineage_inherits",
    ):
        value = getattr(stats, field, None)
        if value:
            _REGISTRY.gauge(f"{prefix}.{backend}.{field}").set(float(value))

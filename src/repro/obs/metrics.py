"""Lightweight process-local metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` maps a dotted metric name plus an optional
label set to an instrument:

* :class:`Counter` — a monotonically increasing count (``inc``);
* :class:`Gauge` — a last-write-wins value (``set``);
* :class:`Histogram` — count/sum/min/max/mean of observed samples plus
  fixed log-spaced buckets (:data:`DEFAULT_BUCKET_LE`) that the
  OpenMetrics exposition renders as cumulative ``le`` series
  (``observe``).

Instruments are keyed by ``(name, sorted label items)``; every label set
of one family (one name) shares one instrument kind.  The solvers
publish label-free cells — cheap aggregate counts (sequence pairs
pruned, augmenting paths found, maze nodes expanded) that the run report
snapshots — while the job service keeps its labelled request, job-state
and per-job resource cells in a registry of its own.  Rendering lives in
:mod:`repro.obs.openmetrics`; the registry has no exposition format and
no background threads.  Hot loops should accumulate into a local
variable and ``inc(total)`` once; the instruments are plain Python and
not meant for per-iteration calls in C-speed loops.

Module-level helpers (:func:`counter`, :func:`gauge`, :func:`histogram`,
:func:`snapshot`, :func:`reset_metrics`) operate on one process-local
default registry; code needing isolation can instantiate its own
:class:`MetricsRegistry`.

**Threading and spawn-worker contract.**  Registry-level mutations —
get-or-create, :meth:`~MetricsRegistry.reset`, snapshot/export and
:meth:`~MetricsRegistry.merge_export` — are guarded by a per-registry
re-entrant lock, so concurrent threads can create instruments, reset the
run scope, or reduce worker exports without corrupting the name map.
The *instruments themselves* stay lock-free: ``inc``/``set``/``observe``
are meant for solver hot paths, and the publishing convention (accumulate
locally, publish once per search from one thread — see
``SearchStats.publish``) already serializes them.  Worker *processes*
never share a registry: each worker calls :func:`repro.obs.reset_run` at
entry, publishes into its own process-local registry, and ships
:func:`export_metrics` back for the parent to :func:`merge_metrics`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import groupby
from typing import (
    Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

Number = Union[int, float]
Labels = Mapping[str, Any]
LabelKey = Tuple[Tuple[str, str], ...]

# Fixed log-spaced histogram bucket upper bounds (the Prometheus ``le``
# values).  One shared ladder spanning 1 ms .. 1000 keeps every fold
# mergeable element-wise: latencies land in the low decades, batch sizes
# and queue depths in the high ones.  Observations above the last bound
# go to the implicit ``+Inf`` bucket.
DEFAULT_BUCKET_LE: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


def label_key(labels: Optional[Labels]) -> LabelKey:
    """The canonical, hashable form of a label set: sorted string pairs."""
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_value(self) -> Number:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def to_value(self) -> Optional[Number]:
        return self.value


class Histogram:
    """Streaming count/sum/min/max plus fixed log-spaced buckets.

    Buckets follow Prometheus ``le`` (value <= bound) semantics but are
    stored *non-cumulative* — one count per bucket, with a final slot for
    observations above the last bound (``+Inf``) — so two histograms
    over the same ladder merge by element-wise addition.  The exposition
    layer (:mod:`repro.obs.openmetrics`) renders the conventional
    cumulative ``_bucket{le=...}`` series from them.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "bucket_le",
                 "buckets")

    def __init__(
        self, name: str, bucket_le: Optional[Sequence[float]] = None
    ):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        bounds = tuple(
            DEFAULT_BUCKET_LE if bucket_le is None else bucket_le
        )
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r}: bucket bounds must be increasing"
            )
        self.bucket_le = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last slot = +Inf

    def observe(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value is exactly the le (value <= bound) bucket;
        # past-the-end lands in the +Inf slot.
        self.buckets[bisect_left(self.bucket_le, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge_value(self, value: Dict[str, Any]) -> None:
        """Fold another histogram's ``to_value()`` dict into this one.

        Same-ladder folds add element-wise; a fold from a different
        ladder re-buckets each foreign bucket by its upper bound (a
        conservative placement — the true samples were at or below it);
        legacy exports without buckets fold their aggregates only, so
        the local bucket series under-counts and the exposition layer's
        ``+Inf``-equals-``count`` invariant is restored at render time.
        """
        count = value.get("count", 0)
        if not count:
            return
        self.count += count
        self.sum += value.get("sum", 0.0)
        if value.get("min", float("inf")) < self.min:
            self.min = value["min"]
        if value.get("max", float("-inf")) > self.max:
            self.max = value["max"]
        other_le = tuple(value.get("bucket_le") or ())
        other_counts = list(value.get("buckets") or ())
        if not other_counts:
            # Pre-bucket export: the aggregate fold above is all we get;
            # account the unattributable samples to +Inf.
            self.buckets[-1] += count
            return
        if other_le == self.bucket_le:
            for i, n in enumerate(other_counts):
                self.buckets[i] += n
            return
        for bound, n in zip(other_le, other_counts):
            self.buckets[bisect_left(self.bucket_le, bound)] += n
        for n in other_counts[len(other_le):]:
            self.buckets[-1] += n

    def to_value(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "bucket_le": list(self.bucket_le),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """``(name, labels)`` -> instrument mapping with typed get-or-create
    accessors.

    Registry-level mutations are thread-safe (see the module docstring);
    instrument updates are not synchronized and belong to one thread at a
    time by convention.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, type] = {}

    def _get(self, name: str, labels: Optional[Labels], cls):
        key = (name, label_key(labels))
        with self._lock:
            kind = self._kinds.setdefault(name, cls)
            if kind is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{kind.__name__}, not {cls.__name__}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name)
            return metric

    def counter(self, name: str, labels: Optional[Labels] = None) -> Counter:
        """Get or create the counter ``name`` (at ``labels``)."""
        return self._get(name, labels, Counter)

    def gauge(self, name: str, labels: Optional[Labels] = None) -> Gauge:
        """Get or create the gauge ``name`` (at ``labels``)."""
        return self._get(name, labels, Gauge)

    def histogram(
        self, name: str, labels: Optional[Labels] = None
    ) -> Histogram:
        """Get or create the histogram ``name`` (at ``labels``)."""
        return self._get(name, labels, Histogram)

    def discard(self, name: str, labels: Optional[Labels] = None) -> None:
        """Drop the instrument ``name`` at ``labels`` if present.

        The job service uses this to retire per-job labelled cells once
        a job is terminal, so long-lived servers do not accumulate
        unbounded gauge cardinality.
        """
        with self._lock:
            self._metrics.pop((name, label_key(labels)), None)

    def reset(self) -> None:
        """Forget every registered instrument."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready ``{name: value}`` export, sorted by name.

        A labelled family's value is its ``series`` list (see
        :meth:`export`).
        """
        return {
            name: entry["series"] if "series" in entry else entry["value"]
            for name, entry in self.export().items()
        }

    # -- cross-process reduction --------------------------------------------

    def export(self) -> Dict[str, Dict[str, Any]]:
        """Typed, picklable export for cross-process merging.

        One entry per family, sorted by name: ``{"type", "value"}`` for a
        family whose only cell is label-free, else ``{"type", "series":
        [{"labels": {...}, "value": ...}, ...]}`` with the cells sorted by
        label set.  Unlike :meth:`snapshot`, the export keeps the
        instrument type so :meth:`merge_export` can reduce a worker
        registry into a parent registry without guessing.
        """
        with self._lock:
            cells = sorted(self._metrics.items())
            out: Dict[str, Dict[str, Any]] = {}
            for name, group in groupby(cells, key=lambda kv: kv[0][0]):
                group = [(key, metric) for (_, key), metric in group]
                entry = {"type": type(group[0][1]).__name__.lower()}
                if len(group) == 1 and not group[0][0]:
                    entry["value"] = group[0][1].to_value()
                else:
                    entry["series"] = [
                        {"labels": dict(key), "value": metric.to_value()}
                        for key, metric in group
                    ]
                out[name] = entry
            return out

    def merge_export(self, exported: Dict[str, Dict[str, Any]]) -> None:
        """Reduce an :meth:`export` from another registry into this one.

        Cells fold by ``(name, labels)``: counters add, histograms fold
        their aggregates together, gauges are last-write-wins (the merged
        value overwrites).  This is the primitive the parallel executor
        and the job service use to surface child-process solver counters
        in the parent.
        """
        with self._lock:
            for name, entry in exported.items():
                kind = entry.get("type")
                for labels, value in export_cells(entry):
                    if kind == "counter":
                        self.counter(name, labels).inc(value)
                    elif kind == "gauge":
                        if value is not None:
                            self.gauge(name, labels).set(value)
                    elif kind == "histogram":
                        self.histogram(name, labels).merge_value(value or {})
                    else:
                        raise ValueError(
                            f"cannot merge metric {name!r}: unknown type "
                            f"{kind!r}"
                        )


def export_cells(
    entry: Mapping[str, Any]
) -> List[Tuple[Dict[str, str], Any]]:
    """``(labels, value)`` per cell of one :meth:`MetricsRegistry.export`
    family entry (label-free cells have empty labels)."""
    if "series" in entry:
        return [(cell["labels"], cell["value"]) for cell in entry["series"]]
    return [({}, entry.get("value"))]


_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _default


def counter(name: str) -> Counter:
    """Get or create a counter on the default registry."""
    return _default.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create a gauge on the default registry."""
    return _default.gauge(name)


def histogram(name: str) -> Histogram:
    """Get or create a histogram on the default registry."""
    return _default.histogram(name)


def snapshot() -> Dict[str, Any]:
    """Snapshot the default registry."""
    return _default.snapshot()


def export_metrics() -> Dict[str, Dict[str, Any]]:
    """Typed export of the default registry (for cross-process merging)."""
    return _default.export()


def merge_metrics(exported: Dict[str, Dict[str, Any]]) -> None:
    """Merge a typed export into the default registry."""
    _default.merge_export(exported)


def reset_metrics() -> None:
    """Clear the default registry (start of a fresh run)."""
    _default.reset()

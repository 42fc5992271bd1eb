"""The metrics registry: counters, gauges, fixed-bucket histograms.

Observability follows the same discipline as the kernel profile
(:mod:`repro.obs.profile`): one module-level slot (``_ACTIVE``) holds
the installed :class:`MetricsRegistry` or ``None``.  Hot classes
*prefetch* their metric objects at construction time
(``reg.counter(...) if reg else None``) so the per-event cost is one
attribute load and a ``None`` check when collection is off, and one
integer add when it is on.
Because metrics bind at construction, install a registry (with
:func:`repro.obs.collecting`, or set ``REPRO_METRICS=1``) *before*
building the system you want to measure --
:func:`repro.sim.runner.simulate` does exactly that.

Three metric kinds cover everything the simulator reports:

``Counter``
    A monotonically-increasing integer (ACTs, ALERTs, RFM commands,
    stall picoseconds).  Merged across runs by addition.
``Gauge``
    A last-value-plus-high-watermark pair (queue occupancy).  Merged
    by taking the maxima, which keeps merging order-independent and
    therefore deterministic under process-pool fan-out.
``Histogram``
    Fixed upper-bound buckets plus a ``+Inf`` overflow bucket, with a
    running sum/count (request latency, outstanding misses).  Merged
    by element-wise addition.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able
dicts; :func:`merge_snapshots` folds any number of them into one, so a
:class:`~repro.sim.session.SimSession` can aggregate the per-job
snapshots its worker processes return into a session-wide view that is
identical whether the jobs ran serially or fanned out.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """A merge-by-addition monotone counter."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}

    def merge_dict(self, data: Dict[str, object]) -> None:
        self.value += data["value"]


class Gauge:
    """A last-value gauge with a high watermark; merged by maxima."""

    __slots__ = ("value", "max")

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0
        self.max = 0

    def set(self, value: int) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value, "max": self.max}

    def merge_dict(self, data: Dict[str, object]) -> None:
        self.value = max(self.value, data["value"])
        self.max = max(self.max, data["max"])


class Histogram:
    """Fixed-bucket histogram: ``len(bounds) + 1`` counts (last = +Inf).

    ``bounds`` are inclusive upper edges in ascending order; a value
    ``v`` lands in the first bucket whose bound is ``>= v``.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending and "
                             "non-empty")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left on inclusive upper edges: v <= bounds[i] lands
        # in bucket i; v above every bound lands in the overflow slot.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> Dict[str, object]:
        return {"type": "histogram", "bounds": list(self.bounds),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count}

    def merge_dict(self, data: Dict[str, object]) -> None:
        if list(data["bounds"]) != list(self.bounds):
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        for i, c in enumerate(data["counts"]):
            self.counts[i] += c
        self.sum += data["sum"]
        self.count += data["count"]

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def metric_key(name: str, subch: Optional[int] = None,
               bank: Optional[int] = None) -> str:
    """Canonical snapshot key for a (possibly per-bank) metric."""
    if subch is None and bank is None:
        return name
    labels = []
    if subch is not None:
        labels.append(f"subch={subch}")
    if bank is not None:
        labels.append(f"bank={bank}")
    return f"{name}{{{','.join(labels)}}}"


def split_key(key: str) -> Tuple[str, Dict[str, int]]:
    """Inverse of :func:`metric_key`: ``(name, labels)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, raw = key.partition("{")
    labels: Dict[str, int] = {}
    for part in raw[:-1].split(","):
        if "=" in part:
            k, _, v = part.partition("=")
            labels[k] = int(v)
    return name, labels


class MetricsRegistry:
    """Name -> metric map with get-or-create accessors and merging."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def counter(self, name: str, subch: Optional[int] = None,
                bank: Optional[int] = None) -> Counter:
        return self._get(metric_key(name, subch, bank), Counter)

    def gauge(self, name: str, subch: Optional[int] = None,
              bank: Optional[int] = None) -> Gauge:
        return self._get(metric_key(name, subch, bank), Gauge)

    def histogram(self, name: str, bounds: Sequence[float],
                  subch: Optional[int] = None,
                  bank: Optional[int] = None) -> Histogram:
        key = metric_key(name, subch, bank)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(bounds)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {key!r} is a {metric.kind}, "
                            f"not a histogram")
        return metric

    def _get(self, key: str, cls: type):
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {key!r} is a {metric.kind}, "
                            f"not a {cls.kind}")
        return metric

    def get(self, key: str):
        """The metric registered under ``key``, or ``None``."""
        return self._metrics.get(key)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view of every metric, sorted by key.

        The snapshot is a deterministic function of the recorded
        events -- key order is sorted, values are plain ints/floats --
        so equal simulations produce equal snapshots regardless of
        which process recorded them.
        """
        return {key: self._metrics[key].to_dict()
                for key in sorted(self._metrics)}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]
                       ) -> None:
        """Fold one snapshot into this registry (create-or-merge)."""
        for key in snapshot:
            data = snapshot[key]
            metric = self._metrics.get(key)
            if metric is None:
                cls = _KINDS[data["type"]]
                if cls is Histogram:
                    metric = Histogram(data["bounds"])
                else:
                    metric = cls()
                self._metrics[key] = metric
            elif metric.kind != data["type"]:
                raise TypeError(
                    f"metric {key!r} is a {metric.kind}; snapshot has "
                    f"a {data['type']}")
            metric.merge_dict(data)


def merge_snapshots(snapshots: Sequence[Optional[Dict[str, Dict]]]
                    ) -> Dict[str, Dict[str, object]]:
    """Merge many snapshots (``None`` entries are skipped) into one."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        if snapshot:
            registry.merge_snapshot(snapshot)
    return registry.snapshot()


_ACTIVE: Optional[MetricsRegistry] = None
"""The installed registry, or ``None`` (the collection-off fast path).

Instrumented constructors read this slot directly (one module-global
load) to prefetch their metric objects; :func:`repro.obs.collecting`
installs it.
"""

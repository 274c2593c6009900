"""The structured metrics registry.

A :class:`MetricsRegistry` is a flat namespace of hierarchically named
(dot-separated) metrics — ``machine.mcu.injected_uops``,
``cache.cap.miss_rate`` — backed by three instrument kinds:

``gauge``
    A zero-argument callable read at snapshot time.  This is how the
    simulator's existing plain-``int`` hot-loop counters are exposed
    without touching the hot path: the subsystem keeps incrementing its
    dataclass attribute and the registry pulls the value on demand.
    ``register_object`` bulk-registers attribute-reading gauges.  There
    is no push-style counter: a count lives in one stats attribute and
    reaches the registry as a gauge, so each count has one home.

``ratio``
    A derived metric defined as ``numerator / denominator`` over two
    other registered metrics, with an explicit ``default`` for the
    zero-denominator case (the repo-wide convention is 0.0; predictor
    accuracy uses 1.0).  Ratios are recomputed — never summed — when
    snapshots are merged or differenced, so multi-core aggregates and
    per-quantum deltas stay mathematically meaningful.

``histogram``
    Fixed-bucket distribution (``observe(value)``); snapshots expand to
    ``<name>.count``, ``<name>.sum`` and cumulative ``<name>.le_<bound>``
    buckets.

Snapshots are plain ``{name: int | float}`` dicts, which makes the
delta/merge algebra trivial and the JSON export direct
(:func:`write_snapshot`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from .state import counter_names

#: Bumped when the exported metrics JSON layout changes.
METRICS_SCHEMA = 1

#: How a metric combines across per-core snapshots: ``sum`` for
#: per-core counts, ``last`` for system-wide gauges that every core
#: observes identically (shadow bytes, heap totals).
MERGE_SUM = "sum"
MERGE_LAST = "last"


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets on export)."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Named gauges/ratios/histograms with snapshot semantics."""

    def __init__(self) -> None:
        self._gauges: Dict[str, Tuple[Callable[[], float], str]] = {}
        self._ratios: "Dict[str, Tuple[str, str, float]]" = {}
        self._histograms: Dict[str, Histogram] = {}
        # (object id, attribute) -> metric name, recorded by
        # register_object so coverage tests can ask "is this stats
        # attribute reachable as a gauge?" (registered_attributes).
        self._attr_sources: "List[Tuple[object, str, str]]" = []
        # Optional per-metric metadata (e.g. the CWE id behind a
        # violations.<kind> gauge); informational only — excluded from
        # snapshots so the delta/merge algebra is untouched.
        self._metadata: Dict[str, Dict[str, object]] = {}

    # -- registration --------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float],
              merge: str = MERGE_SUM,
              meta: Optional[Mapping[str, object]] = None) -> None:
        """Register a pull gauge: ``fn`` is read at snapshot time.

        ``meta`` attaches descriptive metadata (retrievable through
        :meth:`metadata`) without affecting snapshot values.
        """
        self._check_free(name)
        if merge not in (MERGE_SUM, MERGE_LAST):
            raise ValueError(f"unknown merge mode {merge!r}")
        self._gauges[name] = (fn, merge)
        if meta:
            self._metadata[name] = dict(meta)

    def metadata(self, name: str) -> Dict[str, object]:
        """Metadata attached at registration ({} when none)."""
        return dict(self._metadata.get(name, {}))

    def register_object(self, prefix: str, obj: object,
                        fields: Optional[Mapping[str, str]] = None,
                        merge: str = MERGE_SUM) -> None:
        """Expose plain attributes of ``obj`` as ``<prefix>.<field>``.

        ``fields`` is a ``{metric_name: attribute_name}`` mapping;
        without it, ``obj`` is a stats dataclass and every integer field
        is exposed under its own name (:func:`.state.counter_names`).
        This is the bridge from the hot-loop stats dataclasses: the
        attribute stays a bare ``int`` the simulator increments directly.
        """
        if fields is None:
            fields = {name: name for name in counter_names(type(obj))}
        for metric, attribute in fields.items():
            self.gauge(f"{prefix}.{metric}",
                       _attr_reader(obj, attribute), merge=merge)
            self._attr_sources.append((obj, attribute, f"{prefix}.{metric}"))

    def registered_attributes(self, obj: object) -> Dict[str, str]:
        """``{attribute: metric name}`` for every attribute of ``obj``
        bridged through :meth:`register_object` — what the
        metric-coverage completeness test walks to catch stats counters
        that never reach a sidecar."""
        return {attribute: metric
                for source, attribute, metric in self._attr_sources
                if source is obj}

    def ratio(self, name: str, numerator: str, denominator: str,
              default: float = 0.0) -> None:
        """Register ``name`` as ``numerator / denominator`` (both metric
        names), yielding ``default`` on a zero denominator."""
        self._check_free(name)
        self._ratios[name] = (numerator, denominator, default)

    def histogram(self, name: str,
                  buckets: Sequence[float]) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            return existing
        self._check_free(name)
        created = self._histograms[name] = Histogram(buckets)
        return created

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Current value of every metric, ratios last (they read the
        snapshot itself, so a ratio may reference any other kind)."""
        snap: Dict[str, float] = {}
        for name, (fn, _merge) in self._gauges.items():
            snap[name] = fn()
        for name, histogram in self._histograms.items():
            self._expand_histogram(snap, name, histogram)
        self._apply_ratios(snap)
        return snap

    def delta(self, older: Mapping[str, float],
              newer: Mapping[str, float]) -> Dict[str, float]:
        """Per-interval view: ``newer - older`` for summing metrics,
        the newer value for ``last`` gauges, ratios recomputed over the
        differenced counters (an interval miss rate, not a cumulative
        one)."""
        out: Dict[str, float] = {}
        last = self._last_metrics()
        ratio_names = set(self._ratios)
        for name, value in newer.items():
            if name in ratio_names:
                continue
            if name in last:
                out[name] = value
            else:
                out[name] = value - older.get(name, 0)
        self._apply_ratios(out)
        return out

    def merge(self, snapshots: Sequence[Mapping[str, float]]
              ) -> Dict[str, float]:
        """Aggregate per-core snapshots taken from structurally identical
        registries: sum the summing metrics, keep one copy of the
        system-wide gauges, recompute the ratios over the sums."""
        out: Dict[str, float] = {}
        last = self._last_metrics()
        ratio_names = set(self._ratios)
        for snap in snapshots:
            for name, value in snap.items():
                if name in ratio_names:
                    continue
                if name in last:
                    out[name] = value
                else:
                    out[name] = out.get(name, 0) + value
        self._apply_ratios(out)
        return out

    # -- internals -----------------------------------------------------------

    def _check_free(self, name: str) -> None:
        if name in self._gauges or name in self._ratios \
                or name in self._histograms:
            raise ValueError(f"metric {name!r} already registered")

    def _last_metrics(self) -> set:
        return {name for name, (_fn, merge) in self._gauges.items()
                if merge == MERGE_LAST}

    def _apply_ratios(self, snap: Dict[str, float]) -> None:
        for name, (num, den, default) in self._ratios.items():
            denominator = snap.get(den, 0)
            snap[name] = (snap.get(num, 0) / denominator
                          if denominator else default)

    @staticmethod
    def _expand_histogram(snap: Dict[str, float], name: str,
                          histogram: Histogram) -> None:
        snap[f"{name}.count"] = histogram.count
        snap[f"{name}.sum"] = histogram.sum
        cumulative = 0
        for bound, bucket in zip(histogram.bounds,
                                 histogram.bucket_counts):
            cumulative += bucket
            snap[f"{name}.le_{bound:g}"] = cumulative


def _attr_reader(obj: object, attribute: str) -> Callable[[], float]:
    def read() -> float:
        return getattr(obj, attribute)
    return read


def write_snapshot(path: Union[str, Path],
                   metrics: Mapping[str, float],
                   meta: Optional[Mapping[str, object]] = None) -> None:
    """Write one metrics snapshot as a self-describing JSON document."""
    document = {
        "schema": METRICS_SCHEMA,
        "meta": dict(meta) if meta else {},
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

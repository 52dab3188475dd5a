"""The metrics registry: typed counters, gauges, and histograms.

One :class:`MetricsRegistry` absorbs every work counter the stack used
to hand around as ad-hoc tuples — the solver's cumulative counters
(:data:`SOLVER_COUNTER_KEYS`, previously scattered as ``_COUNTER_KEYS``
copies in three modules), the incremental session's reuse counts, the
proof portfolio's round budgets, the repair loop's screening costs.

Three metric kinds, Prometheus-shaped so the registry can back the
future ``/metrics`` endpoint of ``repro serve`` unchanged:

* **Counter** — monotone totals (``.inc(n)``).  Adding work to the
  system means incrementing a counter, never replacing a tuple.
* **Gauge** — point-in-time values (``.set(v)``): database sizes, pool
  occupancy.
* **Histogram** — distributions (``.observe(v)``) over fixed buckets:
  per-candidate screening seconds, CEGIS round sizes.

Metrics take optional **labels** (``counter.inc(1, engine="ic3")``);
each label set is an independent series, exactly like Prometheus
children.  ``snapshot()`` / ``delta_since()`` give the cheap
delta-snapshot idiom the audit path uses for per-check attribution.

The module is dependency-free and must stay importable from the hot
layers (``repro.smt`` imports it), so it must never import other
``repro`` modules.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SOLVER_COUNTER_KEYS",
    "SOLVER_GAUGE_KEYS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "solver_counter_snapshot",
]

#: The solver's cumulative work counters — THE single definition.
#: ``repro.netmodel.bmc.SOLVER_COUNTERS`` re-exports this tuple, and
#: every layer that diffs solver snapshots (the BMC driver, the
#: transition system, the portfolio) keys off it, so adding a counter
#: to :meth:`repro.smt.sat.SatSolver.stats` means extending this tuple
#: — and the contract test in ``tests/obs/test_counter_contract.py``
#: fails loudly if the two ever drift (the PR-6 stale-tuple bug class).
SOLVER_COUNTER_KEYS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "learned",
    "subsumed",
    "strengthened",
)

#: Non-monotone solver statistics (current sizes, not totals); the
#: contract test uses this to classify every ``stats()`` key.
SOLVER_GAUGE_KEYS = ("vars", "clauses", "learnts")


def solver_counter_snapshot(stats: dict) -> dict:
    """Project a solver ``stats()`` dict onto the canonical counter
    keys (missing keys read 0, so pickled pre-inprocessing solvers and
    the vendored reference solver still satisfy the schema)."""
    return {k: stats.get(k, 0) for k in SOLVER_COUNTER_KEYS}


_NO_LABELS: Tuple[Tuple[str, str], ...] = ()


def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return _NO_LABELS
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: a named family of label series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def series(self) -> Iterable[Tuple[Tuple[Tuple[str, str], ...], object]]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotone total.  ``inc`` with optional labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, n: float = 1, **labels) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def series(self):
        return self._values.items()


class Gauge(_Metric):
    """A point-in-time value.  ``set``/``inc``/``dec`` with labels."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def set(self, v: float, **labels) -> None:
        self._values[_label_key(labels)] = v

    def inc(self, n: float = 1, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + n

    def dec(self, n: float = 1, **labels) -> None:
        self.inc(-n, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def series(self):
        return self._values.items()


#: Default histogram buckets: log-ish spread that covers both
#: sub-millisecond solver calls and multi-second proof searches.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class _HistogramSeries:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # cumulative per bucket at export
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """A distribution over fixed upper-bound buckets."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        self._series: Dict[Tuple[Tuple[str, str], ...], _HistogramSeries] = {}

    def observe(self, v: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        i = bisect_left(self.buckets, v)
        if i < len(self.buckets):
            series.counts[i] += 1
        series.total += v
        series.count += 1

    def series(self):
        return self._series.items()

    def _percentile(self, series: _HistogramSeries, q: float) -> float:
        """Prometheus-style estimate of the ``q``-quantile from the
        bucket counts: linear interpolation inside the bucket the
        target observation falls in; observations past the largest
        finite bucket clamp to that bound (the histogram records no
        maximum, so the bound is the honest answer)."""
        if series.count == 0:
            return 0.0
        target = q * series.count
        cumulative = 0.0
        lower = 0.0
        for bound, n in zip(self.buckets, series.counts):
            if n and cumulative + n >= target:
                frac = (target - cumulative) / n
                return lower + frac * (bound - lower)
            cumulative += n
            lower = bound
        return float(self.buckets[-1])

    def percentile(self, q: float, **labels) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) for one label set;
        0 when unobserved."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return 0.0
        return self._percentile(series, q)

    def summary(self, **labels) -> dict:
        """``{count, sum, p50, p95, p99}`` for one label set (0s when
        unobserved)."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0}
        return {
            "count": series.count,
            "sum": series.total,
            "p50": self._percentile(series, 0.50),
            "p95": self._percentile(series, 0.95),
            "p99": self._percentile(series, 0.99),
        }


def _fmt_value(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v)


def _fmt_labels(key: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class MetricsRegistry:
    """A named set of metrics with delta-snapshots and text export."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    # Declaration (idempotent: re-declaring returns the same object).
    # ------------------------------------------------------------------
    def _declare(self, cls, name: str, help: str, **kw) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **kw)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already declared as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._declare(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._declare(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    # ------------------------------------------------------------------
    # Solver counter absorption
    # ------------------------------------------------------------------
    def record_solver(self, delta: dict, **labels) -> None:
        """Fold one check's solver-counter deltas into the registry
        (``repro_solver_<key>_total`` series)."""
        for key in SOLVER_COUNTER_KEYS:
            n = delta.get(key, 0)
            if n:
                self.counter(
                    f"repro_solver_{key}_total",
                    f"cumulative solver {key} across all checks",
                ).inc(n, **labels)

    def record_encoder(self, delta: dict) -> None:
        """Fold one encoding batch's work (terms visited, clauses,
        int32 lits, flushes, template steps instanced) into
        ``repro_encoder_<key>_total``."""
        for key, n in delta.items():
            if n:
                self.counter(f"repro_encoder_{key}_total", f"CNF-encoder {key}").inc(n)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``{series_name: value}`` of every counter and gauge
        (histograms contribute their ``_count`` and ``_sum``)."""
        out: Dict[str, float] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                for key, series in metric.series():
                    suffix = _fmt_labels(key)
                    out[f"{metric.name}_count{suffix}"] = series.count
                    out[f"{metric.name}_sum{suffix}"] = series.total
                    for q, label in ((0.50, "p50"), (0.95, "p95"),
                                     (0.99, "p99")):
                        out[f"{metric.name}_{label}{suffix}"] = round(
                            metric._percentile(series, q), 6
                        )
            else:
                for key, value in metric.series():
                    out[f"{metric.name}{_fmt_labels(key)}"] = value
        return out

    def delta_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Per-interval attribution: current snapshot minus ``snapshot``,
        dropping zero rows (gauges report their current value when
        changed)."""
        now = self.snapshot()
        out: Dict[str, float] = {}
        for name, value in now.items():
            before = snapshot.get(name, 0)
            if value != before:
                out[name] = value - before
        return out

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def dump(self) -> List[dict]:
        """A structured, picklable dump of every series — the shipping
        format worker processes return so :meth:`merge` can fold their
        work into the parent registry."""
        out: List[dict] = []
        for metric in self:
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "labels": dict(key),
                        "counts": list(s.counts),
                        "sum": s.total,
                        "count": s.count,
                    }
                    for key, s in metric.series()
                ]
            else:
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.series()
                ]
            out.append(entry)
        return out

    def merge(self, dump: List[dict]) -> None:
        """Fold a :meth:`dump` from another registry (typically a worker
        process) into this one: counters and histogram series add,
        gauges take the incoming value."""
        for entry in dump:
            kind = entry.get("kind")
            if kind == "counter":
                counter = self.counter(entry["name"], entry.get("help", ""))
                for s in entry["series"]:
                    if s["value"]:
                        counter.inc(s["value"], **s["labels"])
            elif kind == "gauge":
                gauge = self.gauge(entry["name"], entry.get("help", ""))
                for s in entry["series"]:
                    gauge.set(s["value"], **s["labels"])
            elif kind == "histogram":
                hist = self.histogram(
                    entry["name"],
                    entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
                for s in entry["series"]:
                    key = _label_key(s["labels"])
                    series = hist._series.get(key)
                    if series is None:
                        series = hist._series[key] = _HistogramSeries(
                            len(hist.buckets)
                        )
                    for i, n in enumerate(s["counts"][: len(series.counts)]):
                        series.counts[i] += n
                    series.total += s["sum"]
                    series.count += s["count"]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The Prometheus text exposition of every metric — the payload
        a future ``repro serve`` ``/metrics`` endpoint returns."""
        lines: List[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, series in sorted(metric.series()):
                    cumulative = 0
                    for bound, n in zip(metric.buckets, series.counts):
                        cumulative += n
                        le = 'le="%s"' % bound
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_fmt_labels(key, le)} {cumulative}"
                        )
                    inf = 'le="+Inf"'
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(key, inf)} {series.count}"
                    )
                    lines.append(
                        f"{metric.name}_sum{_fmt_labels(key)} "
                        f"{_fmt_value(series.total)}"
                    )
                    lines.append(
                        f"{metric.name}_count{_fmt_labels(key)} {series.count}"
                    )
                    # Bucket-estimated percentiles, exported as plain
                    # series (`<name>_p95{...}`) so text-scraping
                    # consumers — `repro top`, shell one-liners — read
                    # latency quantiles without reconstructing them
                    # from the cumulative buckets.
                    for q, label in ((0.50, "p50"), (0.95, "p95"),
                                     (0.99, "p99")):
                        lines.append(
                            f"{metric.name}_{label}{_fmt_labels(key)} "
                            f"{_fmt_value(round(metric._percentile(series, q), 6))}"
                        )
            else:
                for key, value in sorted(metric.series()):
                    lines.append(
                        f"{metric.name}{_fmt_labels(key)} {_fmt_value(float(value))}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict:
        """Machine-readable dump for the run record."""
        return {
            "schema": "repro.metrics/1",
            "series": self.snapshot(),
        }


class _NullMetric:
    """Shared no-op handle for every metric kind: the disabled path
    allocates nothing and branches nowhere."""

    __slots__ = ()

    def inc(self, n=1, **labels):
        pass

    def dec(self, n=1, **labels):
        pass

    def set(self, v, **labels):
        pass

    def observe(self, v, **labels):
        pass

    def value(self, **labels):
        return 0

    def summary(self, **labels):
        return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def percentile(self, q, **labels):
        return 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled registry: every declaration returns the shared
    no-op metric handle.  Installed by default; swapped for a real
    :class:`MetricsRegistry` when ``--metrics``/``--trace`` (or a
    test/benchmark harness) enables observability."""

    enabled = False

    def counter(self, name, help=""):
        return _NULL_METRIC

    def gauge(self, name, help=""):
        return _NULL_METRIC

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        return _NULL_METRIC

    def get(self, name):
        return None

    def record_solver(self, delta, **labels):
        pass

    def record_encoder(self, delta):
        pass

    def snapshot(self):
        return {}

    def delta_since(self, snapshot):
        return {}

    def dump(self):
        return []

    def merge(self, dump):
        pass

    def to_prometheus(self):
        return ""

    def to_json(self):
        return {"schema": "repro.metrics/1", "series": {}}

    def __iter__(self):
        return iter(())


NULL_REGISTRY = NullRegistry()

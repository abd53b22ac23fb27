"""Process-wide metrics registry: counters, gauges, histograms.

The serving stack (cache, pool, batch runner, JSON-lines service) and
the fault-campaign runner publish their operational counters here
instead of keeping ad-hoc dicts, so one snapshot describes the whole
process.  The registry is deliberately tiny and dependency-free — the
Prometheus *text exposition format* is emitted directly, no client
library required.

Design rules:

* metric objects are cheap to update (``inc``/``set``/``observe`` are a
  dict update); reading is where aggregation happens;
* labels are keyword arguments; one metric owns all its label
  combinations (each combination is a *series*);
* ``snapshot()`` renders every series to a deterministic JSON-safe dict
  (sorted names, sorted label sets) so service replies are stable;
* ``render_prometheus()`` emits ``# HELP``/``# TYPE`` blocks in the
  text format scraped by Prometheus.

Each component defaults to a private registry so unit tests stay
hermetic; the CLI entry points (``repro serve``, ``repro batch``,
``repro faultsim``) wire the process-default :data:`DEFAULT_REGISTRY`
through every layer, which is what "one telemetry spine" means in
operation.
"""

from __future__ import annotations

import bisect
import threading

# Default latency buckets, in seconds (Prometheus convention: each
# bucket counts observations <= its upper bound).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0)


class MetricError(ValueError):
    """Bad metric name, conflicting registration, or unknown labels."""


def _check_labels(declared: tuple, got: dict, metric: str) -> tuple:
    if set(got) != set(declared):
        raise MetricError(
            f"{metric}: expected labels {sorted(declared)}, "
            f"got {sorted(got)}")
    return tuple(str(got[k]) for k in declared)


def _series_key(declared: tuple, values: tuple) -> str:
    if not declared:
        return ""
    return ",".join(f"{k}={v}" for k, v in zip(declared, values))


class _Metric:
    """Common storage: one value per label combination."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labels: tuple = ()) -> None:
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self._series: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def _bump(self, label_values: tuple, amount: float,
              replace: bool = False) -> None:
        with self._lock:
            if replace:
                self._series[label_values] = amount
            else:
                self._series[label_values] = \
                    self._series.get(label_values, 0) + amount

    def value(self, **labels) -> float:
        """Current value of one series (0 if it never updated)."""
        key = _check_labels(self.labels, labels, self.name)
        return self._series.get(key, 0)

    @property
    def total(self) -> float:
        """Sum over every series of this metric."""
        return sum(self._series.values())

    def series(self) -> list[tuple[str, float]]:
        """``(label string, value)`` pairs, deterministically sorted."""
        return sorted((_series_key(self.labels, k), v)
                      for k, v in self._series.items())

    def snapshot(self) -> dict:
        out: dict = {"type": self.kind, "help": self.help}
        if self.labels:
            out["series"] = {key: _num(v) for key, v in self.series()}
            out["total"] = _num(self.total)
        else:
            out["value"] = _num(self._series.get((), 0))
        return out

    def render_prometheus(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        if not self._series:
            lines.append(f"{self.name} 0")
            return lines
        for key, value in self.series():
            suffix = "{" + _prom_labels(key) + "}" if key else ""
            lines.append(f"{self.name}{suffix} {_fmt(value)}")
        return lines


def _num(v: float):
    """Ints stay ints in JSON output."""
    return int(v) if float(v).is_integer() else v


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _prom_labels(key: str) -> str:
    return ",".join(f'{part.split("=", 1)[0]}="{part.split("=", 1)[1]}"'
                    for part in key.split(","))


class Counter(_Metric):
    """Monotonically increasing count (events, items, errors)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (must be >= 0) to one series."""
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up")
        self._bump(_check_labels(self.labels, labels, self.name), amount)

    def sync(self, total: float, **labels) -> None:
        """Set one series to ``total``, a count kept outside the registry.

        For collectors that mirror a monotonic count each time the
        registry is read (see :meth:`MetricsRegistry.add_collector`).
        """
        self._bump(_check_labels(self.labels, labels, self.name), total,
                   replace=True)


class Gauge(_Metric):
    """A value that can go up and down (queue depth, last batch size)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Replace one series' value."""
        self._bump(_check_labels(self.labels, labels, self.name), value,
                   replace=True)

    def inc(self, amount: float = 1, **labels) -> None:
        self._bump(_check_labels(self.labels, labels, self.name), amount)

    def dec(self, amount: float = 1, **labels) -> None:
        self._bump(_check_labels(self.labels, labels, self.name), -amount)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe(x)`` increments every bucket whose upper bound is >= x,
    plus ``_count`` and ``_sum``.  Labels are supported the same way as
    on counters; each label combination owns its own bucket vector.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: tuple = DEFAULT_BUCKETS,
                 labels: tuple = ()) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(f"{name}: buckets must be sorted and "
                              f"non-empty")
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self.buckets = tuple(float(b) for b in buckets)
        # label values -> [per-bucket counts..., +Inf count, sum]
        self._series: dict[tuple, list] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        """Record one observation."""
        key = _check_labels(self.labels, labels, self.name)
        with self._lock:
            row = self._series.setdefault(
                key, [0] * (len(self.buckets) + 1) + [0.0])
            row[bisect.bisect_left(self.buckets, value)] += 1
            row[-1] += value

    def count(self, **labels) -> int:
        key = _check_labels(self.labels, labels, self.name)
        row = self._series.get(key)
        return int(sum(row[:-1])) if row else 0

    def sum(self, **labels) -> float:
        key = _check_labels(self.labels, labels, self.name)
        row = self._series.get(key)
        return float(row[-1]) if row else 0.0

    def series(self):
        return sorted((_series_key(self.labels, k), row)
                      for k, row in self._series.items())

    def snapshot(self) -> dict:
        out: dict = {"type": self.kind, "help": self.help,
                     "buckets": list(self.buckets), "series": {}}
        for key, row in self.series():
            # Cumulative counts, Prometheus style.
            cumulative, acc = [], 0
            for n in row[:-1]:
                acc += n
                cumulative.append(acc)
            out["series"][key] = {"counts": cumulative,
                                  "count": int(sum(row[:-1])),
                                  "sum": round(float(row[-1]), 9)}
        return out

    def render_prometheus(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        for key, row in self.series() or [("", [0] * (len(self.buckets)
                                                      + 1) + [0.0])]:
            base = _prom_labels(key) if key else ""
            acc = 0
            for bound, n in zip(self.buckets, row):
                acc += n
                sep = "," if base else ""
                lines.append(f'{self.name}_bucket{{{base}{sep}le='
                             f'"{_fmt(bound)}"}} {acc}')
            acc += row[len(self.buckets)]
            sep = "," if base else ""
            lines.append(f'{self.name}_bucket{{{base}{sep}le="+Inf"}} '
                         f'{acc}')
            suffix = "{" + base + "}" if base else ""
            lines.append(f"{self.name}_count{suffix} {acc}")
            lines.append(f"{self.name}_sum{suffix} {_fmt(row[-1])}")
        return lines


class MetricsRegistry:
    """A namespace of metrics with deterministic export.

    ``counter``/``gauge``/``histogram`` register-or-fetch: asking for an
    existing name returns the same object if the declaration matches and
    raises :class:`MetricError` if it conflicts, so independent modules
    can share series safely.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    def _register(self, cls, name: str, help_text: str, labels: tuple,
                  **kwargs):
        if not name or not name.replace("_", "a").isalnum():
            raise MetricError(f"bad metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labels != tuple(labels)):
                    raise MetricError(
                        f"metric {name!r} already registered with a "
                        f"different type or label set")
                return existing
            metric = cls(name, help_text, labels=tuple(labels), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str,
                labels: tuple = ()) -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str,
              labels: tuple = ()) -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str,
                  buckets: tuple = DEFAULT_BUCKETS,
                  labels: tuple = ()) -> Histogram:
        """Register (or fetch) a histogram."""
        metric = self._register(Histogram, name, help_text, labels,
                                buckets=tuple(buckets))
        if metric.buckets != tuple(float(b) for b in buckets):
            raise MetricError(f"metric {name!r} already registered with "
                              f"different buckets")
        return metric

    def add_collector(self, collect) -> None:
        """Call ``collect(registry)`` before every snapshot and export.

        For values kept outside the registry, such as a process-wide
        memo's counters: the collector copies them in when the registry
        is read, so the hot path that counts them stays registry-free.
        Adding the same callable again is a no-op.
        """
        with self._lock:
            if collect not in self._collectors:
                self._collectors.append(collect)

    def _collect(self) -> None:
        for collect in list(self._collectors):
            collect(self)

    def get(self, name: str):
        """The registered metric, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Every metric rendered to a deterministic JSON-safe dict."""
        self._collect()
        return {name: self._metrics[name].snapshot()
                for name in self.names()}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format for every metric."""
        self._collect()
        lines: list[str] = []
        for name in self.names():
            lines.extend(self._metrics[name].render_prometheus())
        return "\n".join(lines) + "\n" if lines else ""


#: Process-default registry: the CLI entry points publish here so one
#: scrape/snapshot covers the whole process.  Library users get private
#: registries by default (hermetic tests) and opt in by passing this.
DEFAULT_REGISTRY = MetricsRegistry()

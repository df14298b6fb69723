"""Metrics registry: first-class observability for the simulation.

The trace (:mod:`repro.sim.trace`) records *what happened*; this module
records *how much and how fast*, incrementally, so consumers never have
to replay the whole event log.  Three instrument kinds:

* :class:`Counter` -- monotonically increasing totals, optionally split
  by a string label (e.g. probe outcomes by verdict).
* :class:`Gauge` -- an instantaneous level (queue depth, busy slots)
  that additionally integrates itself over *simulated* time, so its
  time-weighted average and total area (CPU-seconds) are O(1) reads.
* :class:`Histogram` -- a value distribution (submit latency, queue
  wait) with count/sum/min/max and percentile estimates from a bounded
  sample reservoir.

Every :class:`~repro.sim.kernel.Simulator` owns a :class:`MetricsRegistry`
as ``sim.metrics``, subscribed to its trace: a metric that restates a trace
record is a :func:`fold` row, applied to every such record as it is logged,
and only what no record carries is kept by hand.  All state advances on
``sim.now`` only, so identical seeds produce identical snapshots.

The JSON-ready :meth:`MetricsRegistry.snapshot` is the export format
consumed by the benchmark harness and by :mod:`repro.grid.metrics`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class Counter:
    """Monotonically increasing total, optionally split by label."""

    kind = "counter"

    __slots__ = ("name", "_total", "_by_label")

    def __init__(self, name: str):
        self.name = name
        self._total = 0.0
        self._by_label: dict[str, float] = {}

    def inc(self, amount: float = 1.0, label: Optional[str] = None) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._total += amount
        if label is not None:
            key = str(label)
            self._by_label[key] = self._by_label.get(key, 0.0) + amount

    @property
    def value(self) -> float:
        return self._total

    def labelled(self, label: str) -> float:
        return self._by_label.get(str(label), 0.0)

    @property
    def labels(self) -> dict[str, float]:
        return dict(self._by_label)

    def snapshot(self) -> dict:
        out: dict[str, Any] = {"type": self.kind, "value": self._total}
        if self._by_label:
            out["labels"] = dict(sorted(self._by_label.items()))
        return out


class Gauge:
    """Instantaneous level, integrated over simulated time.

    ``integral`` is the area under the level curve since creation (for a
    busy-slot gauge: CPU-seconds delivered); ``time_average`` divides it
    by elapsed simulated time.  ``first_active``/``last_idle`` bracket
    the window in which the gauge was nonzero, which is what incremental
    concurrency statistics need.
    """

    kind = "gauge"

    __slots__ = ("name", "sim", "_value", "_area", "_since", "_t0",
                 "_min", "_max", "first_active", "last_idle")

    def __init__(self, name: str, sim: "Simulator"):
        self.name = name
        self.sim = sim
        self._value = 0.0
        self._area = 0.0
        self._t0 = sim.now
        self._since = sim.now
        self._min = 0.0
        self._max = 0.0
        self.first_active: Optional[float] = None
        self.last_idle: Optional[float] = None

    def _advance(self) -> None:
        now = self.sim.now
        if now > self._since:
            self._area += self._value * (now - self._since)
            self._since = now

    def set(self, value: float) -> None:
        self._advance()
        old = self._value
        self._value = float(value)
        self._min = min(self._min, self._value)
        self._max = max(self._max, self._value)
        if old == 0.0 and self._value != 0.0 and self.first_active is None:
            self.first_active = self.sim.now
        if old != 0.0 and self._value == 0.0:
            self.last_idle = self.sim.now

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max

    @property
    def integral(self) -> float:
        # Computed without folding into ``_area``: a read must not
        # mutate state, or *when* snapshots are taken changes the
        # float-accumulation order (and thus run digests by ulps).
        now = self.sim.now
        extra = self._value * (now - self._since) if now > self._since \
            else 0.0
        return self._area + extra

    @property
    def time_average(self) -> float:
        span = self.sim.now - self._t0
        return self.integral / span if span > 0 else self._value

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "value": self._value,
            "min": self._min,
            "max": self._max,
            "integral": self.integral,
            "time_average": self.time_average,
            "first_active": self.first_active,
            "last_idle": self.last_idle,
        }


class Histogram:
    """Value distribution with exact count/sum/min/max.

    Percentiles come from a bounded reservoir (first :attr:`MAX_SAMPLES`
    observations; the rest only update the exact aggregates and are
    counted in ``sample_dropped``).  Keeping the *first* N rather than a
    random subsample keeps the registry deterministic.
    """

    kind = "histogram"
    MAX_SAMPLES = 4096

    __slots__ = ("name", "count", "total", "_min", "_max",
                 "_samples", "sample_dropped")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: list[float] = []
        self.sample_dropped = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if len(self._samples) < self.MAX_SAMPLES:
            self._samples.append(value)
        else:
            self.sample_dropped += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile over the sample reservoir."""
        if not self._samples:
            return 0.0
        xs = sorted(self._samples)
        if len(xs) == 1:
            return xs[0]
        pos = (q / 100.0) * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "sample_dropped": self.sample_dropped,
        }


class MetricsRegistry:
    """Named instruments attached to one :class:`Simulator`.

    Accessors are get-or-create: the first call for a name fixes its
    kind, and asking for the same name as a different kind is an error
    (it would silently fork the statistic).
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._metrics: dict[str, Any] = {}
        sim.trace.subscribe(self._fold)

    def _fold(self, rec) -> None:
        families = FOLDS.get(rec.event)
        if families is not None:    # by family, not the per-job component
            for get, name, update, when in families.get(
                    rec.component.partition(":")[0], ()):
                if when is None or when(rec):
                    update(self._metrics.get(name) or get(self, name), rec)

    def _get(self, name: str, kind: type, *args: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise SimulationError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {kind.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, self.sim)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready snapshot of every metric."""
        return {
            "time": self.sim.now,
            "metrics": {
                name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())
            },
        }


#: event -> component family -> rows ``(get, name, update, when)``
FOLDS: dict[str, dict[str, tuple]] = {}


def fold(family: str, event: str, name: str,
         update: Callable = lambda metric, rec: metric.inc(),
         kind: str = "counter", when: Optional[Callable] = None) -> None:
    """Every `event` record of a `family` component (that passes `when`)
    updates the `kind` metric `name` by ``update(metric, record)``.  Rows
    of one name share its kind; a metric is a fold or kept by hand."""
    rows = FOLDS.setdefault(event, {})
    rows[family] = rows.get(family, ()) + (
        (getattr(MetricsRegistry, kind), name, update, when),)


def by(key: str) -> Callable:
    """The update that counts a record under its `key` detail."""
    return lambda counter, rec: counter.inc(label=rec.details[key])

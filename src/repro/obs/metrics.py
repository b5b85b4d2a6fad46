"""One metrics registry: typed families and the Prometheus text render.

Every number the serving stack exports lives in a *family* — a
:class:`Counter`, :class:`Gauge` or :class:`Summary` with fixed label
names — registered in the owning service's one :class:`Registry`, whose
:meth:`Registry.render` is the whole ``/metrics`` body.  A series is
addressed by its *key*: the tuple of label values, a bare value for
one-label families, ``()`` for unlabelled ones.  State that already has
an owner (backend health, kernel selection, the V_Pr plane, the trace
store, the result cache) is read at scrape time through a family's
``fn``; a gauge with nothing to report is left out of the render.

Two counter families are process-wide: :data:`ENGINE` (work units —
chunks swept by the batch engine, rows retired by the exact Eq. (2)
sweep, prefix widenings, bisection passes of the merged-slab locator)
and :data:`KERNEL` (kernel-provider entry-point calls).  Both are bumped
once per *chunk or pass*, never per row.  Process executor workers
count into their own copies and ship each chunk's increments home with
its result (:func:`count_shipped` in the worker, :func:`merge_shipped`
in the parent), so the parent's families count sharded work on every
backend.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "ENGINE", "Gauge", "KERNEL", "RESERVOIR", "Registry",
           "Summary", "count_shipped", "kernel_counters", "merge_shipped"]

#: Observations a :class:`Summary` keeps per series; its quantiles are
#: nearest-rank over the most recent ones.
RESERVOIR = 2048

Key = Tuple[str, ...]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value) if isinstance(value, int) else repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _rank(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of a sorted list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1,
                       max(0, int(round(p / 100.0 * (len(ordered) - 1)))))]


class _Family:
    """A named family: label names, a lock, and series keyed by label
    values (or a scrape-time ``fn`` returning ``{key: value}``, or one
    value for an unlabelled family; ``None`` values are skipped)."""

    type = ""

    def __init__(self, name: str, help: str, labels: Iterable[str] = (),
                 fn: Optional[Callable[[], Any]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self.fn = fn
        self._lock = threading.Lock()
        self._series: Dict[Key, Any] = {}

    def _key(self, key: object) -> Key:
        key = key if isinstance(key, tuple) else (key,)
        if len(key) != len(self.labels):
            raise ValueError(f"{self.name} takes labels {self.labels}, "
                             f"got {key!r}")
        return tuple(map(str, key))

    def _samples(self) -> Dict[Key, Any]:
        if self.fn is None:
            with self._lock:
                return dict(self._series)
        values = self.fn()
        if not isinstance(values, dict):
            values = {(): values}
        return {self._key(k): v for k, v in values.items() if v is not None}

    def _line(self, name: str, key: Key, value: object,
              extra: Tuple[Tuple[str, str], ...] = ()) -> str:
        pairs = tuple(zip(self.labels, key)) + extra
        if not pairs:
            return f"{name} {_fmt(value)}"
        inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
        return f"{name}{{{inner}}} {_fmt(value)}"

    def _lines(self, key: Key, value: Any) -> List[str]:
        return [self._line(self.name, key, value)]

    def render(self) -> List[str]:
        samples = self._samples()
        if not samples and self.type == "gauge":
            return []
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.type}"]
        for key in sorted(samples):
            lines += self._lines(key, samples[key])
        return lines


class Gauge(_Family):
    """A point-in-time value per key, read at scrape time by ``fn``."""

    type = "gauge"


class Counter(_Family):
    """A monotonically increasing integer per key (an unlabelled counter
    starts at a visible zero)."""

    type = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self.labels:
            self._series[()] = 0

    def inc(self, key: object = (), n: int = 1) -> None:
        key = self._key(key)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + n

    def declare(self, *keys: object) -> None:
        """Create zero-valued series, so a scrape lists them before use."""
        for key in keys:
            self.inc(key, 0)

    def get(self, key: object = (), default: int = 0) -> int:
        return self._samples().get(self._key(key), default)

    def total(self) -> int:
        return sum(self._samples().values())

    def snapshot(self) -> Dict[Any, int]:
        """``{key: value}`` sorted by key; one-label keys are bare strings."""
        return {k[0] if len(self.labels) == 1 else k: v
                for k, v in sorted(self._samples().items())}

    def reset(self) -> None:
        """Zero everything — test isolation only; production counters are
        cumulative (Prometheus ``rate()`` needs monotonicity)."""
        with self._lock:
            self._series.clear()


class Summary(_Family):
    """Durations in seconds per key: count, sum, and p50/p90/p99 over the
    last :data:`RESERVOIR` observations."""

    type = "summary"
    QUANTILES = (("0.5", 50), ("0.9", 90), ("0.99", 99))

    def _series_of(self, key: Key) -> list:
        """``[samples, count, total]`` of *key*; call with the lock held."""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [deque(maxlen=RESERVOIR), 0, 0.0]
        return series

    def declare(self, *keys: object) -> None:
        """Create empty series, so a scrape lists them before use."""
        with self._lock:
            for key in keys:
                self._series_of(self._key(key))

    def observe(self, key: object, seconds: float) -> None:
        key = self._key(key)
        with self._lock:
            series = self._series_of(key)
            series[0].append(seconds)
            series[1] += 1
            series[2] += seconds

    def _read(self, key: Key) -> Tuple[List[float], int, float]:
        with self._lock:
            samples, count, total = self._series.get(key, ((), 0, 0.0))
            samples = list(samples)
        return sorted(samples), count, total

    def _samples(self) -> Dict[Key, Any]:
        with self._lock:
            keys = list(self._series)
        return {key: self._read(key) for key in keys}

    def snapshot(self, key: object) -> Dict[str, float]:
        """``count``, ``mean_ms`` and ``p50/p90/p99_ms`` of one series
        (all zero for one never observed)."""
        ordered, count, total = self._read(self._key(key))
        out = {"count": count,
               "mean_ms": total / count * 1e3 if count else 0.0}
        for _, p in self.QUANTILES:
            out[f"p{p}_ms"] = _rank(ordered, p) * 1e3
        return out

    def _lines(self, key: Key, value: Any) -> List[str]:
        ordered, count, total = value
        return [self._line(self.name, key, _rank(ordered, p),
                           (("quantile", q),)) for q, p in self.QUANTILES] \
            + [self._line(f"{self.name}_count", key, count),
               self._line(f"{self.name}_sum", key, total)]


class Registry:
    """The families one service exports, in registration order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def register(self, family: Any) -> Any:
        """Add *family*, replacing one registered under the same name (a
        new gateway over a reused service starts its counts at zero, like
        a fresh server)."""
        with self._lock:
            self._families[family.name] = family
        return family

    def counter(self, name: str, help: str, labels: Iterable[str] = (),
                fn=None) -> Counter:
        return self.register(Counter(name, help, labels, fn))

    def gauge(self, name: str, help: str, labels: Iterable[str] = (),
              fn=None) -> Gauge:
        return self.register(Gauge(name, help, labels, fn))

    def summary(self, name: str, help: str,
                labels: Iterable[str] = ()) -> Summary:
        return self.register(Summary(name, help, labels))

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        """Every family in Prometheus text exposition format."""
        return "".join(line + "\n" for family in self.families()
                       for line in family.render())


#: Process-wide engine work counters (see module docstring).
ENGINE = Counter(
    "repro_engine_events_total",
    "Engine-level work counters (chunks swept, rows retired, rows "
    "re-swept at a wider prefix, locator passes), worker processes "
    "included.", ("event",))

#: Kernel-provider calls keyed ``(provider, op)``, one per entry-point
#: call (chunk-level, like :data:`ENGINE`).
KERNEL = Counter(
    "repro_kernel_calls_total",
    "Kernel entry-point invocations by provider and operation (one per "
    "chunk-level call, worker processes included).", ("provider", "op"))

_SHIPPED = (ENGINE, KERNEL)


def count_shipped(fn: Callable[..., object], *args) -> Tuple[object, list]:
    """Worker side: ``(fn(*args), the ENGINE/KERNEL increments it made)``."""
    marks = [c.snapshot() for c in _SHIPPED]
    result = fn(*args)
    return result, [{k: n - mark.get(k, 0) for k, n in c.snapshot().items()
                     if n != mark.get(k, 0)}
                    for c, mark in zip(_SHIPPED, marks)]


def merge_shipped(shipped: Tuple[object, list]) -> object:
    """Parent side: fold a chunk's shipped increments into this process's
    families and return the bare chunk result."""
    result, deltas = shipped
    for counter, delta in zip(_SHIPPED, deltas):
        for key, n in delta.items():
            counter.inc(key, n)
    return result


def kernel_counters() -> Dict[str, int]:
    """A snapshot of :data:`KERNEL` keyed ``"<provider>:<op>"``."""
    return {":".join(k): v for k, v in KERNEL.snapshot().items()}

"""Cheap engine-level work counters for the hot-path modules.

The span machinery (:mod:`repro.obs.trace`) times *stages*; these
counters count *work units* at the places spans would be too expensive
or too remote to reach: chunks swept by the batch engine, rows retired
by the exact Eq. (2) sweep, prefix widenings (how often the
argpartition prefix was too narrow and had to grow 4x), bisection passes
of the merged-slab point locator.  One lock-guarded integer add per *chunk or
pass* — never per row — so the engines stay within noise of their
uninstrumented cost.

Counters live in one process-wide :data:`ENGINE` set.  Worker processes
of the process/shm executor backends increment their own copies, which
die with the pool: cross-process *compute time* is captured by the
shipped worker spans instead, and the parent-side counters still see
every in-process execution (inline/thread backends, unsharded batches,
the V_Pr build).  ``/metrics`` exports the snapshot as the
``repro_engine_events_total`` family.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["CounterSet", "ENGINE", "KERNEL", "engine_counters",
           "kernel_counters"]


class CounterSet:
    """A named bag of monotonically increasing integer counters."""

    __slots__ = ("_lock", "_counts")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))

    def reset(self) -> None:
        """Zero everything — test isolation only; production counters are
        cumulative (Prometheus rate() needs monotonicity)."""
        with self._lock:
            self._counts.clear()


#: The process-wide engine counter set (see module docstring).
ENGINE = CounterSet()

#: Kernel-provider call counters, keyed ``"<provider>:<op>"`` — one inc
#: per provider entry-point call (chunk-level, like :data:`ENGINE`).
#: ``/metrics`` exports the snapshot as
#: ``repro_kernel_calls_total{provider,op}``.
KERNEL = CounterSet()


def engine_counters() -> Dict[str, int]:
    """A point-in-time snapshot of :data:`ENGINE`."""
    return ENGINE.snapshot()


def kernel_counters() -> Dict[str, int]:
    """A point-in-time snapshot of :data:`KERNEL`."""
    return KERNEL.snapshot()

"""LRU result cache for the query service, keyed by exact queries.

Quantification probabilities are piecewise-stable in the query point —
``pi(q)`` is constant on each cell of the probabilistic Voronoi diagram,
and ``NN!=0(q)`` on each cell of ``V!=0`` — so service traffic that
revisits locations (fleet trackers polling fixed beacons, grid sweeps,
dashboard refreshes) re-asks literally identical queries.  Keys are the
exact ``(method, x, y, params)`` tuple, so a hit is always bit-for-bit
the answer the engine would return, and no spatial tolerance can ever
blur two distinct cells together.

Eviction is plain LRU over a bounded :class:`~collections.OrderedDict`;
the cache is thread-safe (one lock around the dict) because the service's
micro-batch flusher runs on a background thread.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Tuple

from ..obs.metrics import Registry
from ..quantification.threshold import ThresholdResult

__all__ = ["ResultCache"]

_MISS = object()


def _isolated(value: object) -> object:
    """A copy whose mutation cannot reach the original, cheaply.

    Served answers are flat containers of immutables — ``NN!=0`` index
    lists, ``{index: pi}`` dicts, top-k ``(index, pi)`` tuple lists,
    :class:`ThresholdResult` with two index lists — so a type-aware
    shallow copy isolates them at a fraction of ``copy.deepcopy``'s cost
    (which would otherwise tax every hit on the cached hot path).
    Unknown types fall back to ``deepcopy`` so correctness never depends
    on this inventory staying complete.
    """
    if isinstance(value, (float, int, str, bytes, type(None))):
        return value
    if type(value) is list:
        return list(value)
    if type(value) is dict:
        return dict(value)
    if type(value) is ThresholdResult:
        return ThresholdResult(value.tau, value.epsilon,
                               list(value.certain), list(value.candidates))
    return copy.deepcopy(value)


class ResultCache:
    """Bounded LRU mapping exact query keys to previously served answers.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries (must be positive; a service
        that wants no caching simply doesn't construct one).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Evictions by query kind: every key's first element is the
        # method name (see key()), so an unexplained hit-rate drop can be
        # attributed to whichever kind's entries are being pushed out.
        self.evictions_by_kind: Dict[str, int] = {}

    def key(self, method: str, q: Tuple[float, float],
            params: Tuple) -> Hashable:
        """The cache key of one scalar request.

        ``params`` must already be the canonical sorted items tuple the
        service computes once per batch.  Two requests share an entry iff
        method, coordinates, and every parameter agree exactly.
        """
        return (method, float(q[0]), float(q[1]), params)

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Hashable) -> Tuple[bool, object]:
        """``(hit, value)`` — a hit refreshes the entry's recency.

        Hits return an isolated copy: served answers are small mutable
        containers (index lists, estimate dicts), and a caller mutating
        one must not corrupt the stored entry for later hits.
        """
        with self._lock:
            value = self._store.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return False, None
            self._store.move_to_end(key)
            self.hits += 1
            return True, _isolated(value)

    def peek(self, key: Hashable) -> Tuple[bool, object]:
        """``(hit, value)`` without touching recency or counters."""
        with self._lock:
            value = self._store.get(key, _MISS)
            if value is _MISS:
                return False, None
            return True, _isolated(value)

    def put(self, key: Hashable, value: object) -> None:
        """Insert a private, isolated copy of *value* under *key*.

        The copy isolates the entry from the caller, who still holds —
        and may mutate — the object being inserted.
        """
        value = _isolated(value)
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            self._store[key] = value
            while len(self._store) > self.capacity:
                evicted_key, _ = self._store.popitem(last=False)
                self.evictions += 1
                kind = (evicted_key[0] if isinstance(evicted_key, tuple)
                        and evicted_key else "unknown")
                self.evictions_by_kind[kind] = \
                    self.evictions_by_kind.get(kind, 0) + 1

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    @property
    def hit_rate(self) -> float:
        # Both counters under one lock acquisition: a get() on another
        # thread bumps exactly one of them, so an unlocked read could see
        # a hit counted whose miss-side denominator update is missing (a
        # torn ratio > the true rate, or > 1.0 right after a reset).
        with self._lock:
            hits, misses = self.hits, self.misses
        seen = hits + misses
        return hits / seen if seen else 0.0

    def register(self, registry: Registry) -> None:
        """Export entries and evictions in *registry*, read at scrape
        time."""
        registry.gauge("repro_cache_entries",
                       "Entries currently held by the result cache.",
                       fn=lambda: len(self))
        registry.counter("repro_cache_evictions_total",
                         "LRU evictions from the result cache.",
                         fn=lambda: self.evictions)
        registry.counter("repro_cache_kind_evictions_total",
                         "LRU evictions from the result cache by query kind.",
                         ("kind",),
                         fn=lambda: self.snapshot()["evictions_by_kind"])

    def snapshot(self) -> Dict[str, object]:
        """Counters, sizes and the derived hit rate.

        All counters are read under one lock acquisition so the snapshot
        is internally consistent (``hit_rate`` is derived from the same
        ``hits``/``misses`` pair it reports — the property is *not*
        re-consulted, both because it would re-lock and because a racing
        ``get()`` could change the answer between the two reads).
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            entries = len(self._store)
            evictions = self.evictions
            by_kind = dict(self.evictions_by_kind)
        seen = hits + misses
        return {
            "entries": entries,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "evictions_by_kind": by_kind,
            "hit_rate": round(hits / seen if seen else 0.0, 4),
        }

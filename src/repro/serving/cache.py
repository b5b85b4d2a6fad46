"""LRU result cache for the query service: exact keys or region keys.

Quantification probabilities are piecewise-stable in the query point —
``pi(q)`` is constant on each cell of the probabilistic Voronoi diagram,
and ``NN!=0(q)`` on each cell of ``V!=0`` — so service traffic that
revisits locations (fleet trackers polling fixed beacons, grid sweeps,
dashboard refreshes) re-asks literally identical queries.  The default
*exact* mode exploits exactly that: keys are the exact ``(method, x, y,
params)`` tuple, so a hit is always bit-for-bit the answer the engine
would return, and no spatial tolerance can ever blur two distinct cells
together.

Passing ``cell_size > 0`` switches the cache to *region* mode: the
coordinates are quantized to a grid of that pitch (``floor(x / cell)``)
before keying, so every query inside a grid cell shares one entry.  That
trades exactness for hit rate — a hit returns the answer computed for
*some* earlier query in the same cell, which is the served answer's value
whenever the cell sits inside one region of the relevant (probabilistic)
Voronoi subdivision, and an approximation when the cell straddles a
boundary.  Pick ``cell_size`` below the feature scale of the workload
(the E20/E21 cached-stream experiments show the hit-rate side of the
trade).  Region keying only ever applies to the piecewise-constant query
kinds; ``delta`` is a *continuous* function of the query point (sharing
a cell entry would be wrong by up to a cell diagonal everywhere, not
just at region boundaries), so it keeps exact keys even in region mode
(:data:`CONTINUOUS_METHODS`).  :meth:`snapshot` labels its statistics
with the active mode so dashboards can tell the two apart.

Eviction is plain LRU over a bounded :class:`~collections.OrderedDict`;
the cache is thread-safe (one lock around the dict) because the service's
micro-batch flusher runs on a background thread.
"""

from __future__ import annotations

import copy
import math
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Tuple

from ..obs.metrics import Registry
from ..quantification.threshold import ThresholdResult

__all__ = ["ResultCache", "CONTINUOUS_METHODS"]

#: Query kinds whose answers vary continuously with the query point.
#: Every other kind (``nonzero_nn``, ``quantify``/``quantify_exact``/
#: ``quantify_vpr`` and the quantify-derived ``top_k``/``threshold_nn``)
#: is piecewise-constant over a Voronoi subdivision, which is what makes
#: region keys faithful away from cell boundaries; these are not, so
#: they always key exactly.
CONTINUOUS_METHODS = frozenset({"delta"})

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
    cell_size:
        ``0`` (default) keys requests by exact coordinates; a positive
        pitch switches to region mode, quantizing coordinates to grid
        cells so nearby queries share entries (see the module docstring
        for the exactness trade).
    """

    def __init__(self, capacity: int = 4096,
                 cell_size: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if cell_size < 0:
            raise ValueError("cell_size must be non-negative")
        self.capacity = capacity
        self.cell_size = float(cell_size)
        self.mode = "region" if cell_size > 0 else "exact"
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
        """The cache key of one scalar request under this cache's mode.

        ``params`` must already be the canonical sorted items tuple the
        service computes once per batch.  In exact mode two requests
        share an entry iff method, coordinates, and every parameter agree
        exactly; in region mode the coordinates are first quantized to
        ``cell_size`` grid indices — except for the continuous-valued
        kinds (:data:`CONTINUOUS_METHODS`), which key exactly always.
        """
        if self.mode == "region" and method not in CONTINUOUS_METHODS:
            return (method, math.floor(q[0] / self.cell_size),
                    math.floor(q[1] / self.cell_size), params)
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
                       ("mode",), fn=lambda: {self.mode: len(self)})
        registry.counter("repro_cache_evictions_total",
                         "LRU evictions from the result cache.", ("mode",),
                         fn=lambda: {self.mode: self.evictions})
        registry.counter("repro_cache_kind_evictions_total",
                         "LRU evictions from the result cache by query kind.",
                         ("kind",),
                         fn=lambda: self.snapshot()["evictions_by_kind"])

    def snapshot(self) -> Dict[str, object]:
        """Counters labelled with the keying mode they were earned under.

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
            "mode": self.mode,
            "cell_size": self.cell_size,
            "entries": entries,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "evictions_by_kind": by_kind,
            "hit_rate": round(hits / seen if seen else 0.0, 4),
        }

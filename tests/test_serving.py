"""Tests for ``repro.serving``: cache, coalescer, sharding, service.

The serving layer's one inviolable contract is that every routing
decision — cache hit, coalesced micro-batch, sharded chunk, inline
fallback — returns exactly what the plain ``PNNIndex`` call would have.
These tests pin that contract plus the subsystem's own mechanics
(LRU eviction, flush triggers, ordered reassembly, worker lifecycle,
stats accounting) and the edge cases the issue calls out: empty batches,
a single worker, cache eviction at capacity, and bitwise-equal results
across shard counts.
"""

import math
import random
import time

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, random_disks
from repro.serving import (
    MicroBatcher,
    QueryService,
    ResultCache,
    ServiceConfig,
    ShardExecutor,
)
from repro.serving.executors import process as process_module
from repro.uncertain.disk_uniform import DiskUniformPoint


def _disk_index(n, seed=3):
    extent = math.sqrt(n) * 2.0
    disks = random_disks(n, seed=seed, extent=extent, r_min=0.1, r_max=0.4)
    return PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks]), extent


def _queries(m, extent, seed=17):
    rng = random.Random(seed)
    return np.array([(rng.uniform(0, extent), rng.uniform(0, extent))
                     for _ in range(m)])


class TestResultCache:
    def test_hit_miss_and_recency(self):
        cache = ResultCache(capacity=8)
        key = cache.key("delta", (1.0, 2.0), ())
        hit, _ = cache.get(key)
        assert not hit and cache.misses == 1
        cache.put(key, 0.25)
        hit, value = cache.get(key)
        assert hit and value == 0.25 and cache.hits == 1

    def test_eviction_at_capacity_is_lru(self):
        cache = ResultCache(capacity=4)
        keys = [cache.key("delta", (float(i), 0.0), ())
                for i in range(6)]
        for i, key in enumerate(keys[:4]):
            cache.put(key, i)
        # Refresh key 0 so key 1 is now the least recently used.
        assert cache.get(keys[0])[0]
        cache.put(keys[4], 4)   # evicts key 1
        cache.put(keys[5], 5)   # evicts key 2
        assert len(cache) == 4
        assert cache.evictions == 2
        assert cache.peek(keys[0])[0]
        assert not cache.peek(keys[1])[0]
        assert not cache.peek(keys[2])[0]
        assert cache.peek(keys[3])[0]

    def test_exact_keys_do_not_blur(self):
        cache = ResultCache(capacity=8)
        cache.put(cache.key("delta", (1.0, 2.0), ()), 1.0)
        assert not cache.get(
            cache.key("delta", (1.0 + 1e-12, 2.0), ()))[0]
        assert not cache.get(
            cache.key("nonzero_nn", (1.0, 2.0), ()))[0]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        # Keys are exact coordinates only; a region pitch fails closed.
        with pytest.raises(TypeError):
            ResultCache(capacity=8, cell_size=0.5)

    def test_mutating_served_answers_cannot_corrupt_entries(self):
        cache = ResultCache(capacity=8)
        key = cache.key("nonzero_nn", (1.0, 2.0), ())
        original = [0, 2]
        cache.put(key, original)
        original.append(99)            # caller keeps mutating its object
        _, served = cache.get(key)
        assert served == [0, 2]
        served.append(7)               # ... or mutates a served hit
        assert cache.get(key)[1] == [0, 2]


class TestMicroBatcher:
    def _echo_batcher(self, calls, **kwargs):
        def flush_fn(method, queries, params):
            calls.append((method, list(queries), params))
            return [q[0] + q[1] for q in queries]
        kwargs.setdefault("auto_flush", False)
        return MicroBatcher(flush_fn, **kwargs)

    def test_max_batch_triggers_inline_flush(self):
        calls = []
        batcher = self._echo_batcher(calls, max_batch=4)
        futures = [batcher.submit("delta", (float(i), 1.0), ())
                   for i in range(4)]
        assert len(calls) == 1 and len(calls[0][1]) == 4
        assert [f.result(timeout=0) for f in futures] == [1, 2, 3, 4]
        assert batcher.full_flushes == 1
        assert batcher.largest_batch == 4
        assert batcher.pending == 0

    def test_explicit_flush_and_grouping(self):
        calls = []
        batcher = self._echo_batcher(calls, max_batch=100)
        batcher.submit("delta", (1.0, 1.0), ())
        batcher.submit("quantify", (2.0, 2.0), (("epsilon", 0.1),))
        batcher.submit("delta", (3.0, 3.0), ())
        assert batcher.pending == 3
        released = batcher.flush()
        assert released == 3
        # Two groups: (delta, ()) coalesced, quantify separate.
        assert sorted(len(c[1]) for c in calls) == [1, 2]

    def test_flush_window_background_thread(self):
        calls = []
        def flush_fn(method, queries, params):
            calls.append(len(queries))
            return [0.0] * len(queries)
        batcher = MicroBatcher(flush_fn, max_batch=100, flush_window=0.01)
        fut = batcher.submit("delta", (1.0, 1.0), ())
        assert fut.result(timeout=2.0) == 0.0
        assert batcher.timer_flushes >= 1
        batcher.close()

    def test_flush_fn_error_propagates_to_futures(self):
        def flush_fn(method, queries, params):
            raise RuntimeError("engine exploded")
        batcher = MicroBatcher(flush_fn, max_batch=100, auto_flush=False)
        fut = batcher.submit("delta", (1.0, 1.0), ())
        batcher.flush()
        with pytest.raises(RuntimeError, match="engine exploded"):
            fut.result(timeout=0)

    def test_cancelled_future_does_not_poison_its_group(self):
        calls = []
        batcher = self._echo_batcher(calls, max_batch=100)
        kept = batcher.submit("delta", (1.0, 1.0), ())
        doomed = batcher.submit("delta", (2.0, 2.0), ())
        assert doomed.cancel()
        batcher.flush()
        # The cancelled future is skipped; its neighbors still resolve.
        assert kept.result(timeout=0) == 2.0
        assert doomed.cancelled()

    def test_cancelled_future_does_not_kill_flusher_thread(self):
        def flush_fn(method, queries, params):
            return [0.0] * len(queries)
        batcher = MicroBatcher(flush_fn, max_batch=100, flush_window=0.01)
        doomed = batcher.submit("delta", (1.0, 1.0), ())
        assert doomed.cancel()
        time.sleep(0.05)                       # let the timer flush fire
        assert batcher._thread.is_alive()      # flusher survived
        healthy = batcher.submit("delta", (2.0, 2.0), ())
        assert healthy.result(timeout=2.0) == 0.0
        batcher.close()

    def test_submit_after_close_raises(self):
        batcher = self._echo_batcher([], max_batch=4)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit("delta", (0.0, 0.0), ())


class TestShardExecutor:
    def test_deterministic_across_shard_counts(self):
        """Sharded output is bitwise-equal to unsharded, any worker count."""
        index, extent = _disk_index(300)
        qs = _queries(700, extent)
        base_delta = index.batch_delta(qs)
        base_nn = index.batch_nonzero_nn(qs)
        base_quant = index.batch_quantify(qs[:60], epsilon=0.25)
        for workers in (1, 2, 3):
            with ShardExecutor(index.points, workers=workers,
                               chunk_size=64) as executor:
                assert np.array_equal(executor.run("delta", qs), base_delta)
                assert executor.run("nonzero_nn", qs) == base_nn
                assert executor.run("quantify", qs[:60],
                                    {"epsilon": 0.25}) == base_quant

    def test_deterministic_quantify_exact_across_shard_counts(self):
        """The sixth kind: sharded exact quantification is bitwise-equal
        to the unsharded vectorized sweep (and hence to the scalar sweep)
        at every worker count, inline fallback included."""
        pts = random_discrete_points(40, 4, seed=13, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(250, 14.0, seed=23)
        base = index.batch_quantify_exact(qs)
        assert base == [index.quantify(tuple(q), method="exact")
                        for q in qs.tolist()]
        for workers in (1, 2, 3):
            with ShardExecutor(pts, workers=workers,
                               chunk_size=32) as executor:
                assert executor.run("quantify_exact", qs) == base
        # The inline fallback (no pool at all) walks the same chunks.
        with ShardExecutor(pts, workers=1, chunk_size=32) as executor:
            assert executor.mode == "inline"
            assert executor.run("quantify_exact", qs) == base

    def test_all_methods_covered(self):
        pts = random_discrete_points(10, 3, seed=5, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(40, 10.0)
        with ShardExecutor(pts, workers=2, chunk_size=8) as executor:
            assert executor.run("top_k", qs, {"k": 2}) == \
                index.batch_top_k(qs, k=2)
            assert executor.run("threshold_nn", qs, {"tau": 0.4}) == \
                index.batch_threshold_nn(qs, tau=0.4)

    def test_empty_batch(self):
        index, extent = _disk_index(20)
        with ShardExecutor(index.points, workers=2) as executor:
            result = executor.run("delta", np.empty((0, 2)))
            assert isinstance(result, np.ndarray) and result.shape == (0,)
            assert executor.run("nonzero_nn", []) == []

    def test_single_worker_is_inline(self):
        index, extent = _disk_index(20)
        with ShardExecutor(index.points, workers=1) as executor:
            assert executor.mode == "inline"
            qs = _queries(30, extent)
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))

    def test_unknown_method_rejected(self):
        index, _ = _disk_index(5)
        with ShardExecutor(index.points, workers=1) as executor:
            with pytest.raises(ValueError, match="unknown shardable"):
                executor.run("voronoi", np.zeros((1, 2)))

    def test_run_after_close_raises_cleanly(self):
        index, extent = _disk_index(20)
        executor = ShardExecutor(index.points, workers=2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run("delta", _queries(5, extent))

    def test_fallback_when_multiprocessing_unavailable(self, monkeypatch):
        """Sandboxes without process pools degrade instead of crashing:
        an explicit process backend falls to inline, the auto policy
        falls through to the (always-available) thread backend."""
        def broken_get_context(method=None):
            raise ValueError(f"start method {method!r} unavailable")

        monkeypatch.setattr(process_module.multiprocessing, "get_context",
                            broken_get_context)
        # This test pins the *default* auto chain; the backend-matrix CI
        # job steers auto through this env var, so clear it here.
        monkeypatch.delenv("REPRO_SERVING_BACKEND", raising=False)
        index, extent = _disk_index(40)
        qs = _queries(50, extent)
        with ShardExecutor(index.points, workers=4,
                           backend="process") as executor:
            assert executor.mode == "inline"
            assert executor.workers == 1
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))
        with ShardExecutor(index.points, workers=4) as executor:
            assert executor.mode == "thread"
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))

    def test_fallback_when_pool_start_fails(self, monkeypatch):
        real_get_context = process_module.multiprocessing.get_context

        class _BrokenContext:
            def __init__(self, method):
                self._method = method

            def Pool(self, *args, **kwargs):  # noqa: N802 — mp API name
                raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(
            process_module.multiprocessing, "get_context",
            lambda method=None: _BrokenContext(method or "fork"))
        index, extent = _disk_index(40)
        with ShardExecutor(index.points, workers=2,
                           backend="process") as executor:
            assert executor.mode == "inline"
            qs = _queries(20, extent)
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))
        assert callable(real_get_context)


class TestQueryService:
    def test_scalar_paths_match_index(self):
        index, extent = _disk_index(60)
        rng = random.Random(9)
        with index.serve(workers=0, coalesce=False) as service:
            for _ in range(25):
                q = (rng.uniform(0, extent), rng.uniform(0, extent))
                assert service.delta(q) == index.delta(q)
                assert service.nonzero_nn(q) == index.nonzero_nn(q)
                assert service.quantify(q, epsilon=0.25) == \
                    index.quantify(q, epsilon=0.25)
                assert service.top_k(q, 2, epsilon=0.25) == \
                    index.top_k_nn(q, 2, epsilon=0.25)
                assert service.threshold_nn(q, 0.4) == \
                    index.threshold_nn(q, 0.4)

    def test_quantify_exact_front_doors_match_index(self):
        pts = random_discrete_points(25, 3, seed=19, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(40, 10.0, seed=29)
        base = index.batch_quantify_exact(qs)
        with index.serve(workers=0, coalesce=False,
                         cache_capacity=64) as service:
            q0 = tuple(qs[0])
            assert service.quantify_exact(q0) == \
                index.quantify(q0, method="exact")
            assert service.quantify_exact(q0) == base[0]  # cached hit
            assert service.batch_quantify_exact(qs) == base
            with pytest.raises(TypeError, match="unknown parameters"):
                service.quantify_exact(q0, epsilon=0.1)
        # Coalesced submits agree too.
        with index.serve(workers=0, cache_capacity=0, max_batch=8,
                         flush_window=10.0) as service:
            futures = [service.submit("quantify_exact", tuple(q))
                       for q in qs[:8]]
            assert [f.result(timeout=2.0) for f in futures] == base[:8]

    def test_cache_hits_skip_engine(self):
        index, extent = _disk_index(30)
        with index.serve(workers=0, coalesce=False,
                         cache_capacity=64) as service:
            q = (1.5, 2.5)
            first = service.delta(q)
            calls = service.method_stats("delta")["batch_calls"]
            assert service.delta(q) == first
            assert service.method_stats("delta")["batch_calls"] == calls
            assert service.cache.hits == 1

    def test_repeat_stream_hit_rate_and_engine_calls(self):
        index, extent = _disk_index(40)
        hot = [tuple(q) for q in _queries(50, extent, seed=47)]
        rng = random.Random(47)
        stream = [hot[rng.randrange(len(hot))] for _ in range(500)]
        with index.serve(workers=0, coalesce=False,
                         cache_capacity=8192) as service:
            for q in stream:
                service.nonzero_nn(q)
            snap = service.stats()
            # <= 50 distinct keys in 500 requests: ~90% hits.
            assert snap["cache"]["hit_rate"] >= 0.7
            assert snap["cache"]["entries"] <= 8192
            method = snap["methods"]["nonzero_nn"]
            assert method["requests"] == len(stream)
            # Every miss is one single-row engine call; hits skip it.
            assert method["batch_calls"] == method["cache_misses"]
            for q in hot[:10]:
                assert service.nonzero_nn(q) == index.nonzero_nn(q)

    def test_batch_empty(self):
        index, _ = _disk_index(10)
        with index.serve(workers=0, coalesce=False) as service:
            deltas = service.batch("delta", [])
            assert isinstance(deltas, np.ndarray) and deltas.shape == (0,)
            assert service.batch("nonzero_nn", np.empty((0, 2))) == []

    def test_batch_partial_cache_merge(self):
        index, extent = _disk_index(40)
        qs = _queries(20, extent)
        expected = index.batch_delta(qs)
        with index.serve(workers=0, coalesce=False, cache_capacity=128,
                         cache_batch_limit=64) as service:
            # Pre-warm half the rows as scalar queries.
            for x, y in qs[:10]:
                service.delta((float(x), float(y)))
            merged = service.batch_delta(qs)
            assert np.array_equal(merged, expected)
            mstats = service.method_stats("delta")
            assert mstats["cache_hits"] == 10

    def test_large_batch_bypasses_cache_and_matches(self):
        index, extent = _disk_index(50)
        qs = _queries(300, extent)
        with index.serve(workers=0, coalesce=False, cache_capacity=16,
                         cache_batch_limit=100) as service:
            assert np.array_equal(service.batch_delta(qs),
                                  index.batch_delta(qs))
            assert len(service.cache) == 0  # bypassed, nothing inserted

    def test_sharded_batch_bitwise_equal(self):
        index, extent = _disk_index(200)
        qs = _queries(900, extent)
        cfg = ServiceConfig(workers=2, shard_min_batch=100,
                            cache_batch_limit=10, coalesce=False)
        with QueryService(index, cfg) as service:
            result = service.batch_delta(qs)
            assert np.array_equal(result, index.batch_delta(qs))
            mstats = service.method_stats("delta")
            if service.executor.mode != "inline":
                assert mstats["sharded_calls"] == 1

    def test_submit_coalesces_and_agrees(self):
        index, extent = _disk_index(80)
        qs = [tuple(map(float, q)) for q in _queries(40, extent)]
        with index.serve(workers=0, max_batch=16, flush_window=10.0,
                         cache_capacity=0) as service:
            futures = [service.submit("nonzero_nn", q) for q in qs]
            service.flush()
            results = [f.result(timeout=5.0) for f in futures]
            assert results == index.batch_nonzero_nn(np.array(qs))
            assert service.batcher.full_flushes >= 2  # 40 req / max 16

    def test_submit_cache_hit_resolves_immediately(self):
        index, extent = _disk_index(20)
        with index.serve(workers=0, max_batch=8, flush_window=10.0,
                         cache_capacity=32) as service:
            q = (2.0, 3.0)
            service.delta(q)
            fut = service.submit("delta", q)
            assert fut.done()
            assert fut.result(timeout=0) == index.delta(q)

    def test_params_canonicalized_for_cache(self):
        """auto resolves to a concrete method, so spellings share entries."""
        pts = random_discrete_points(6, 2, seed=11, spread=2.0)
        index = PNNIndex(pts)
        with index.serve(workers=0, coalesce=False,
                         cache_capacity=32) as service:
            q = (1.0, 1.0)
            a = service.quantify(q, method="auto", epsilon=0.25)
            b = service.quantify(q, method="spiral", epsilon=0.25)
            assert a == b
            assert service.cache.hits == 1

    def test_unknown_method_and_params_rejected(self):
        index, _ = _disk_index(5)
        with index.serve(workers=0, coalesce=False) as service:
            with pytest.raises(ValueError, match="unknown query method"):
                service.query("nearest", (0.0, 0.0))
            with pytest.raises(TypeError, match="no parameters"):
                service.query("delta", (0.0, 0.0), epsilon=0.1)
            with pytest.raises(TypeError, match="unknown parameters"):
                service.quantify((0.0, 0.0), tau=0.5)

    def test_stats_snapshot_shape(self):
        index, extent = _disk_index(25)
        with index.serve(workers=0, cache_capacity=16,
                         max_batch=4, flush_window=10.0) as service:
            service.delta((1.0, 1.0))
            service.delta((1.0, 1.0))
            snap = service.stats()
            assert snap["total_requests"] == 2
            method = snap["methods"]["delta"]
            assert method["cache_hits"] == 1
            assert method["p99_ms"] >= method["p50_ms"] >= 0.0
            assert snap["cache"]["entries"] == 1
            assert snap["coalescer"]["pending"] == 0

    def test_close_is_idempotent_and_drains(self):
        index, extent = _disk_index(15)
        service = index.serve(workers=0, max_batch=64, flush_window=10.0,
                              cache_capacity=0)
        fut = service.submit("delta", (1.0, 2.0))
        service.close()
        assert fut.result(timeout=1.0) == index.delta((1.0, 2.0))
        service.close()  # second close is a no-op

    def test_serve_rejects_config_plus_overrides(self):
        index, _ = _disk_index(5)
        with pytest.raises(TypeError):
            index.serve(ServiceConfig(), workers=2)


class TestServiceConfigValidation:
    def test_defaults_are_valid(self):
        ServiceConfig()  # must not raise

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            ServiceConfig(backend="gpu")

    @pytest.mark.parametrize("field,value", [
        ("workers", -1),
        ("max_batch", 0),
        ("max_batch", -5),
        ("shard_min_batch", 0),
        ("shard_chunk", 0),
        ("flush_window", 0.0),
        ("flush_window", -1.0),
        ("cache_capacity", -1),
        ("cache_batch_limit", -1),
    ])
    def test_non_positive_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_zero_disables_are_allowed(self):
        # 0 means "off" for these — not a size error.
        ServiceConfig(workers=0, cache_capacity=0, cache_batch_limit=0)

    def test_retired_cache_cell_size_rejected(self):
        # Keys are exact coordinates only: a region pitch is an unknown
        # field on the config and on the index.serve shortcut alike, so
        # it cannot be silently ignored.
        with pytest.raises(TypeError, match="cache_cell_size"):
            ServiceConfig(cache_cell_size=0.25)
        index, _ = _disk_index(5)
        with pytest.raises(TypeError, match="cache_cell_size"):
            index.serve(workers=0, cache_cell_size=0.25)

    def test_unknown_query_kind_rejected_with_known_list(self):
        index, _ = _disk_index(5)
        with index.serve(workers=0, coalesce=False) as service:
            with pytest.raises(ValueError, match="quantify_vpr"):
                service.query("voronoi", (0.0, 0.0))


class TestResultCacheConcurrency:
    """The cache under concurrent access (the thread backend's world): stats must not be corrupted and snapshots must stay
    consistent while other threads churn the store."""

    def test_concurrent_get_put_stats_consistent(self):
        import threading

        cache = ResultCache(capacity=64)
        per_thread = 400
        n_threads = 8
        errors = []

        def worker(tid):
            try:
                rng = random.Random(tid)
                for i in range(per_thread):
                    # A 9 x 9 lattice of points, so gets hit and miss.
                    q = (rng.randrange(9) * 0.5, rng.randrange(9) * 0.5)
                    key = cache.key("nonzero_nn", q, ())
                    hit, value = cache.get(key)
                    if not hit:
                        cache.put(key, [tid, i])
                    elif not isinstance(value, list):
                        errors.append(f"corrupt value {value!r}")
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every get incremented exactly one of hits/misses.
        assert cache.hits + cache.misses == n_threads * per_thread
        assert len(cache) <= 64
        snap = cache.snapshot()
        assert snap["hits"] == cache.hits
        assert snap["entries"] == len(cache)

    def test_snapshot_consistent_during_churn(self):
        import threading

        cache = ResultCache(capacity=32)
        stop = threading.Event()
        errors = []

        def churn():
            rng = random.Random(99)
            while not stop.is_set():
                q = (rng.randrange(8) * 0.25, rng.randrange(8) * 0.25)
                key = cache.key("quantify", q, ())
                if not cache.get(key)[0]:
                    cache.put(key, {0: 1.0})

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(200):
                snap = cache.snapshot()
                assert 0 <= snap["entries"] <= snap["capacity"]
                assert snap["hits"] >= 0 and snap["misses"] >= 0
                assert 0.0 <= snap["hit_rate"] <= 1.0
        finally:
            stop.set()
            thread.join()

    def test_thread_backend_service_stats_not_corrupted(self):
        """A caching service hammered from many client threads over the
        thread backend keeps its accounting exact."""
        import threading

        pts = random_discrete_points(15, 3, seed=21, spread=2.0)
        index = PNNIndex(pts)
        requests_per_thread = 50
        n_threads = 6
        beacons = [(1.0 + i, 2.0 + i) for i in range(5)]
        with index.serve(workers=2, backend="thread", coalesce=False,
                         cache_capacity=256) as service:
            errors = []

            def client(tid):
                try:
                    rng = random.Random(tid)
                    for _ in range(requests_per_thread):
                        service.quantify_exact(
                            beacons[rng.randrange(len(beacons))])
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            total = n_threads * requests_per_thread
            mstats = service.method_stats("quantify_exact")
            assert mstats["cache_hits"] + mstats["cache_misses"] == total
            assert mstats["requests"] == total
            snap = service.stats()["cache"]
            assert snap["hits"] + snap["misses"] == total


class TestQuantifyVprServing:
    def _fleet(self, n=12, seed=13):
        pts = random_discrete_points(n, 2, seed=seed, spread=2.0)
        return PNNIndex(pts)

    def test_matches_batch_quantify_exact_in_and_out_of_box(self):
        index = self._fleet()
        vpr = index.cached_vpr()
        (xmin, ymin), (xmax, ymax) = vpr.box
        rng = random.Random(7)
        inside = np.array([(rng.uniform(xmin + 0.05, xmax - 0.05),
                            rng.uniform(ymin + 0.05, ymax - 0.05))
                           for _ in range(120)])
        outside = np.array([(xmax + rng.uniform(1.0, 5.0),
                             ymin - rng.uniform(1.0, 5.0))
                            for _ in range(40)])
        qs = np.vstack([inside, outside])
        assert index.batch_quantify_vpr(qs) == \
            index.batch_quantify_exact(qs)
        # Out-of-box rows really exercised the fallback sweep.
        locs = vpr.locator.locate_batch(outside)
        assert (locs == -1).all()

    def test_service_front_doors_match(self):
        index = self._fleet()
        rng = random.Random(11)
        qs = [(rng.uniform(-1, 8), rng.uniform(-1, 8)) for _ in range(30)]
        with index.serve(workers=0, coalesce=False,
                         cache_capacity=64) as service:
            for q in qs[:10]:
                assert service.quantify_vpr(q) == \
                    index.quantify(q, method="exact")
            batch = service.batch_quantify_vpr(np.array(qs))
            assert batch == index.batch_quantify_exact(np.array(qs))
            with pytest.raises(TypeError, match="no parameters"):
                service.query("quantify_vpr", qs[0], epsilon=0.1)
        # Coalesced submits agree too.
        with index.serve(workers=0, cache_capacity=0, max_batch=8,
                         flush_window=10.0) as service:
            futures = [service.submit("quantify_vpr", q) for q in qs[:8]]
            service.flush()
            assert [f.result(timeout=2.0) for f in futures] == \
                index.batch_quantify_exact(np.array(qs[:8]))

    def test_prebuilt_vpr_adopted(self):
        index = self._fleet(n=8, seed=5)
        vpr = index.build_vpr()
        with index.serve(vpr=vpr, workers=0, coalesce=False) as service:
            assert index._vpr is vpr
            q = (1.0, 1.0)
            assert service.quantify_vpr(q) == \
                index.quantify(q, method="exact")

    def test_prebuilt_vpr_size_mismatch_rejected(self):
        index = self._fleet(n=8, seed=5)
        other = self._fleet(n=6, seed=9)
        with pytest.raises(ValueError, match="prebuilt V_Pr"):
            index.serve(vpr=other.build_vpr(), workers=0)

    def test_non_discrete_index_raises(self):
        index, _ = _disk_index(6)
        with index.serve(workers=0, coalesce=False) as service:
            with pytest.raises(ValueError, match="discrete"):
                service.quantify_vpr((0.0, 0.0))

    def test_large_batches_only_shard_on_index_sharing_backends(self):
        """quantify_vpr must not fan out to process worker replicas
        (each would rebuild its own Theta(N^4) diagram and ignore an
        adopted prebuilt one); the index-sharing thread backend shards."""
        index = self._fleet(n=8, seed=5)
        rng = random.Random(37)
        qs = np.array([(rng.uniform(-1, 7), rng.uniform(-1, 7))
                       for _ in range(300)])
        expected = index.batch_quantify_exact(qs)
        for backend, fans_out in (("process", False), ("thread", True)):
            cfg = ServiceConfig(workers=2, backend=backend,
                                shard_min_batch=100, cache_batch_limit=10,
                                coalesce=False)
            with QueryService(index, cfg) as service:
                if service.executor.mode == "inline":  # pragma: no cover
                    continue  # pool-less sandbox: nothing to assert
                assert service.batch_quantify_vpr(qs) == expected
                mstats = service.method_stats("quantify_vpr")
                assert mstats["sharded_calls"] == (1 if fans_out else 0)
                # The other kinds still fan out on every live backend.
                service.batch("quantify_exact", qs)
                assert service.method_stats(
                    "quantify_exact")["sharded_calls"] == 1


class TestServiceLifecycle:
    def test_service_del_closes_executor(self):
        index, _ = _disk_index(20)
        service = index.serve(workers=2, coalesce=False)
        executor = service.executor
        impl = executor.impl
        del service
        import gc

        gc.collect()
        assert executor._closed
        assert impl.closed

    def test_executor_del_closes_backend(self):
        index, _ = _disk_index(20)
        executor = ShardExecutor(index.points, workers=2)
        impl = executor.impl
        del executor
        import gc

        gc.collect()
        assert impl.closed

    def test_double_close_every_backend(self):
        index, _ = _disk_index(15)
        for backend in ("process", "thread", "inline"):
            executor = ShardExecutor(index.points, workers=2,
                                     backend=backend)
            executor.close()
            executor.close()  # second close is a no-op
            with pytest.raises(RuntimeError, match="closed"):
                executor.run("delta", np.zeros((1, 2)))


class TestBatchThresholdNN:
    def test_matches_scalar_on_disks(self):
        index, extent = _disk_index(40)
        qs = _queries(25, extent)
        batch = index.batch_threshold_nn(qs, tau=0.3)
        assert len(batch) == 25
        for q, res in zip(qs, batch):
            assert res == index.threshold_nn((float(q[0]), float(q[1])), 0.3)

    def test_matches_scalar_on_discrete_spiral(self):
        pts = random_discrete_points(8, 3, seed=7, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(15, 8.0)
        batch = index.batch_threshold_nn(qs, tau=0.25, method="spiral")
        for q, res in zip(qs, batch):
            assert res == index.threshold_nn((float(q[0]), float(q[1])),
                                             0.25, method="spiral")

    def test_empty_queries(self):
        index, _ = _disk_index(5)
        assert index.batch_threshold_nn(np.empty((0, 2)), tau=0.5) == []


def test_flush_window_latency_bound():
    """A submitted request is answered within a few flush windows."""
    index, extent = _disk_index(30)
    with index.serve(workers=0, max_batch=10_000,
                     flush_window=0.01, cache_capacity=0) as service:
        start = time.perf_counter()
        fut = service.submit("delta", (1.0, 1.0))
        value = fut.result(timeout=2.0)
        elapsed = time.perf_counter() - start
        assert value == index.delta((1.0, 1.0))
        assert elapsed < 2.0

class TestMicroBatcherCloseRace:
    """close() must be drain-or-fail atomic against concurrent flushes:
    every future handed out before the closed flag is resolved by the
    time close() returns, even when its group was detached by an inline
    full flush or the background flusher and is still mid-engine."""

    def test_close_waits_for_inflight_inline_flush(self):
        import threading

        release = threading.Event()
        entered = threading.Event()

        def slow_flush(method, queries, params):
            entered.set()
            release.wait(timeout=10)
            return [q[0] for q in queries]

        batcher = MicroBatcher(slow_flush, max_batch=1, auto_flush=False)
        # max_batch=1: the submit detaches its own group and runs it
        # inline — from close()'s point of view, an in-flight group that
        # is in neither _groups nor the flusher's hands.
        fut_holder = {}

        def submitter():
            fut_holder["fut"] = batcher.submit("delta", (7.0, 0.0), ())

        sub = threading.Thread(target=submitter)
        sub.start()
        assert entered.wait(timeout=5)

        closed = threading.Event()

        def closer():
            batcher.close()
            closed.set()

        clo = threading.Thread(target=closer)
        clo.start()
        # close() must be blocked on the in-flight group, not returned.
        assert not closed.wait(timeout=0.1)
        release.set()
        sub.join(timeout=5)
        clo.join(timeout=5)
        assert closed.is_set()
        assert fut_holder["fut"].result(timeout=0) == 7.0

    def test_close_vs_submit_hammer_no_stranded_future(self):
        """Spam submits from many threads while closing: every accepted
        future is resolved when close() returns; late submits raise."""
        import threading

        def flush_fn(method, queries, params):
            time.sleep(0.0005)  # widen the detached-but-running window
            return [q[0] for q in queries]

        for trial in range(5):
            batcher = MicroBatcher(flush_fn, max_batch=2,
                                   flush_window=0.001)
            accepted = [[] for _ in range(4)]

            def spam(tid):
                while True:
                    try:
                        fut = batcher.submit("delta", (float(tid), 0.0),
                                             ())
                    except RuntimeError:
                        return  # closed — expected shutdown signal
                    accepted[tid].append(fut)

            threads = [threading.Thread(target=spam, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.01)
            batcher.close()
            # The moment close() returns, nothing may still be pending:
            # sample *now*, before the spammers get a chance to finish.
            unresolved = [f for futs in accepted for f in futs
                          if not f.done()]
            for t in threads:
                t.join(timeout=10)
            assert not unresolved, (
                f"trial {trial}: close() returned with "
                f"{len(unresolved)} unresolved futures")
            for tid, futs in enumerate(accepted):
                for f in futs:
                    assert f.result(timeout=0) == float(tid)

    def test_concurrent_closers_both_drain(self):
        import threading

        def flush_fn(method, queries, params):
            time.sleep(0.002)
            return [0.0] * len(queries)

        batcher = MicroBatcher(flush_fn, max_batch=100, flush_window=5.0)
        futures = [batcher.submit("delta", (float(i), 0.0), ())
                   for i in range(5)]
        threads = [threading.Thread(target=batcher.close)
                   for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert all(f.done() for f in futures)
        assert [f.result(timeout=0) for f in futures] == [0.0] * 5


class TestLatencyStatsEmptyWindow:
    """A registered-but-never-hit method (every HTTP kind starts that
    way) must snapshot as clean zeros — no exception, no NaN leaking
    into a /metrics scrape."""

    def test_percentile_on_empty_window_is_zero(self):
        from repro.obs.metrics import Summary

        rec = Summary("repro_test_seconds", "test", ("kind",))
        rec.declare("delta")
        snap = rec.snapshot("delta")
        for key in ("p50_ms", "p90_ms", "p99_ms"):
            assert snap[key] == 0.0
        assert 'repro_test_seconds{kind="delta",quantile="0.99"} 0.0' \
            in rec.render()

    def test_snapshot_on_empty_window_is_all_zeros(self):
        from repro.obs.metrics import Summary

        snap = Summary("repro_test_seconds", "test", ("kind",)) \
            .snapshot("delta")
        assert snap == {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                        "p90_ms": 0.0, "p99_ms": 0.0}

    def test_never_hit_method_snapshots_clean(self):
        index, _ = _disk_index(10)
        with index.serve(workers=0) as service:
            snap = service.stats()
        for name in ("quantify_vpr", "top_k"):
            m = snap["methods"][name]
            assert m["requests"] == 0 and m["count"] == 0
            assert m["hit_rate"] == 0.0 and m["p99_ms"] == 0.0
        assert snap["total_requests"] == 0

    def test_single_sample_percentiles(self):
        from repro.obs.metrics import Summary

        rec = Summary("repro_test_seconds", "test", ("kind",))
        rec.observe("delta", 0.25)
        snap = rec.snapshot("delta")
        assert snap["p50_ms"] == 250.0
        assert snap["p99_ms"] == 250.0


class TestCacheHitRateTornRead:
    def test_hit_rate_never_torn_under_churn(self):
        """hits and misses are read under one lock acquisition: a
        concurrent reader can never combine a new hits with a stale
        misses (which can push the ratio above 1)."""
        import threading

        cache = ResultCache(capacity=8)
        stop = threading.Event()
        errors = []

        def churn(tid):
            rng = random.Random(tid)
            while not stop.is_set():
                key = cache.key("delta", (float(rng.randrange(12)), 0.0),
                                ())
                if not cache.get(key)[0]:
                    cache.put(key, 1.0)

        threads = [threading.Thread(target=churn, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(2000):
                rate = cache.hit_rate
                if not 0.0 <= rate <= 1.0:
                    errors.append(rate)
                snap = cache.snapshot()
                if not 0.0 <= snap["hit_rate"] <= 1.0:
                    errors.append(("snapshot", snap["hit_rate"]))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors

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
import sys
import threading
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
from repro.serving.executors import LADDER
from repro.serving.executors import process as process_module
from repro.serving.faults import Deadline
from repro.testing.rungs import on_rung
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
    def test_hit_and_miss(self):
        cache = ResultCache(capacity=8)
        key = cache.key("delta", (1.0, 2.0), ())
        assert cache.get(key) == (False, None)
        cache.put(key, 0.25)
        assert cache.get(key) == (True, 0.25)

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
        assert [cache.get(key)[0] for key in keys] == \
            [True, False, False, True, True, True]

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


def _gated(flush_fn):
    """Wrap *flush_fn* so its first call blocks until ``release`` is set.

    Returns ``(gated_fn, entered, release)``: ``entered`` is set once the
    first flush is running.  While it is held, every submit of the same
    ``(method, params)`` key queues behind it.
    """
    entered, release = threading.Event(), threading.Event()

    def gated_fn(*args):
        if not entered.is_set():
            entered.set()
            assert release.wait(timeout=10)
        return flush_fn(*args)

    return gated_fn, entered, release


def _spawn(call, *args):
    """Run ``call(*args)`` on a new started thread.

    Returns ``(thread, out)``; ``out`` receives the returned row, or the
    exception the call raised.  A submit whose key is idle leads; one
    whose key is flushing queues and blocks until its group has run.
    """
    out = []

    def run():
        try:
            out.append(call(*args))
        except BaseException as exc:  # noqa: BLE001 — recorded for assert
            out.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def _await_pending(batcher, rows):
    """Wait until *rows* rows are queued behind the running flush."""
    give_up = time.monotonic() + 5
    while batcher.pending < rows:
        assert time.monotonic() < give_up, \
            f"{batcher.pending} of {rows} rows queued"
        time.sleep(0.001)


def _join(threads, timeout=10):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive()


class TestMicroBatcher:
    def _echo_batcher(self, calls, max_batch):
        def flush_fn(method, queries, params, spans, deadline):
            calls.append((method, list(queries), params,
                          threading.current_thread()))
            return [q[0] + q[1] for q in queries]
        gated_fn, entered, release = _gated(flush_fn)
        return MicroBatcher(gated_fn, max_batch=max_batch), entered, release

    def test_max_batch_caps_each_queued_flush(self):
        calls = []
        batcher, entered, release = self._echo_batcher(calls, max_batch=4)
        leader, _ = _spawn(batcher.submit, "delta", (0.0, 1.0), ())
        assert entered.wait(timeout=5)
        queued = [_spawn(batcher.submit, "delta", (float(i), 1.0), ())
                  for i in range(1, 10)]
        _await_pending(batcher, 9)
        release.set()
        _join([leader] + [t for t, _ in queued])
        # Flush 1 held the leader's own row; the nine queued rows follow
        # in groups of at most max_batch.
        assert [len(c[1]) for c in calls] == [1, 4, 4, 1]
        assert [out[0] for _, out in queued] == list(range(2, 11))
        assert batcher.flushes == 4
        assert batcher.largest_batch == 4
        assert batcher.pending == 0

    def test_queued_requests_group_by_method_and_params(self):
        calls = []
        batcher, entered, release = self._echo_batcher(calls, max_batch=100)
        leader, _ = _spawn(batcher.submit, "delta", (1.0, 1.0), ())
        assert entered.wait(timeout=5)
        # Another key is idle, so it runs inline at once.
        assert batcher.submit("quantify", (2.0, 2.0),
                              (("epsilon", 0.1),)) == 4.0
        queued = [_spawn(batcher.submit, "delta", (x, x), ())
                  for x in (3.0, 4.0)]
        _await_pending(batcher, 2)
        release.set()
        _join([leader] + [t for t, _ in queued])
        assert sorted(out[0] for _, out in queued) == [6.0, 8.0]
        # The gate releases the leader's own row only now, after the
        # quantify flush.
        assert [(c[0], len(c[1])) for c in calls] == [
            ("quantify", 1), ("delta", 1), ("delta", 2)]

    def test_queued_group_runs_on_one_of_its_submitters(self):
        calls = []
        batcher, entered, release = self._echo_batcher(calls, max_batch=100)
        leader, _ = _spawn(batcher.submit, "delta", (1.0, 1.0), ())
        assert entered.wait(timeout=5)
        follower, out = _spawn(batcher.submit, "delta", (2.0, 2.0), ())
        _await_pending(batcher, 1)
        release.set()
        _join([leader, follower])
        assert out == [4.0]
        assert [c[3] for c in calls] == [leader, follower]
        batcher.close()

    def test_flush_fn_gets_spans_and_merged_deadline(self):
        """One call form: the sampled spans (empty when none) and the
        group's laxest deadline (None once any member has none)."""
        seen = []

        def flush_fn(method, queries, params, spans, deadline):
            seen.append((len(queries), list(spans), deadline))
            return [q[0] for q in queries]

        gated_fn, entered, release = _gated(flush_fn)
        batcher = MicroBatcher(gated_fn, max_batch=100)
        tight, lax = Deadline(5.0), Deadline(50.0)
        leader, _ = _spawn(batcher.submit, "delta", (0.0, 0.0), (), None,
                           tight)
        assert entered.wait(timeout=5)
        queued = [_spawn(batcher.submit, "delta", (float(i), 0.0), (),
                         span, deadline)
                  for i, span, deadline in ((1, "s1", tight),
                                            (2, None, lax))]
        _await_pending(batcher, 2)
        release.set()
        _join([leader] + [t for t, _ in queued])
        assert [out[0] for _, out in queued] == [1.0, 2.0]
        assert seen == [(1, [], tight), (2, ["s1"], lax)]
        assert batcher.submit("delta", (3.0, 0.0), ()) == 3.0
        assert seen[-1] == (1, [], None)

    def test_leader_returns_after_its_own_flush_under_sustained_traffic(
            self):
        """A leader's submit returns after its own flush, while other
        threads keep the key busy: no caller runs the flushes of traffic
        that arrived after it."""
        ran_on = []

        def flush_fn(method, queries, params, spans, deadline):
            ran_on.append(threading.current_thread())
            time.sleep(0.001)
            return [q[0] for q in queries]

        gated_fn, entered, release = _gated(flush_fn)
        batcher = MicroBatcher(gated_fn, max_batch=2)
        stop = threading.Event()
        leader_done = []

        def leader_fn():
            batcher.submit("delta", (0.0, 0.0), ())
            leader_done.append(batcher.flushes)

        def spam():
            while not stop.is_set():
                assert batcher.submit("delta", (1.0, 0.0), ()) == 1.0

        leader = threading.Thread(target=leader_fn)
        leader.start()
        assert entered.wait(timeout=5)
        spammers = [threading.Thread(target=spam) for _ in range(4)]
        for t in spammers:
            t.start()
        _await_pending(batcher, 4)
        release.set()
        _join([leader], timeout=5)
        # The spammers keep the key flushing after the leader returned.
        give_up = time.monotonic() + 5
        try:
            while batcher.flushes < leader_done[0] + 5:
                assert time.monotonic() < give_up
                time.sleep(0.001)
        finally:
            stop.set()
        _join(spammers)
        batcher.close()
        assert ran_on.count(leader) == 1
        assert leader_done[0] <= 3

    def test_flush_fn_error_raises_to_the_submitter(self):
        def flush_fn(method, queries, params, spans, deadline):
            raise RuntimeError("engine exploded")
        batcher = MicroBatcher(flush_fn, max_batch=100)
        with pytest.raises(RuntimeError, match="engine exploded"):
            batcher.submit("delta", (1.0, 1.0), ())
        # The key was released after the failure.
        assert not batcher._queues

    def test_queued_group_error_fails_only_its_group(self):
        def flush_fn(method, queries, params, spans, deadline):
            if any(q[0] == 99.0 for q in queries):
                raise RuntimeError("bad row")
            return [q[0] for q in queries]

        gated_fn, entered, release = _gated(flush_fn)
        batcher = MicroBatcher(gated_fn, max_batch=2)
        leader, _ = _spawn(batcher.submit, "delta", (0.0, 0.0), ())
        assert entered.wait(timeout=5)
        # Queued groups of two: [1, 99] fails as a unit, [3, 4] does not.
        queued = []
        for rows, x in enumerate((1.0, 99.0, 3.0, 4.0), start=1):
            queued.append(_spawn(batcher.submit, "delta", (x, 0.0), ()))
            _await_pending(batcher, rows)
        release.set()
        _join([leader] + [t for t, _ in queued])
        outs = [out[0] for _, out in queued]
        for out in outs[:2]:
            assert isinstance(out, RuntimeError) and str(out) == "bad row"
        assert outs[2:] == [3.0, 4.0]
        assert batcher.flushes == 3
        # The key was released after the failure.
        assert batcher.submit("delta", (5.0, 0.0), ()) == 5.0
        batcher.close()

    def test_short_flush_result_fails_the_group(self):
        batcher = MicroBatcher(lambda *args: [], max_batch=4)
        with pytest.raises(RuntimeError, match="0 results for 1 requests"):
            batcher.submit("delta", (1.0, 1.0), ())

    @pytest.mark.parametrize("max_batch", [0, -1])
    def test_non_positive_max_batch_rejected(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda *args: [], max_batch=max_batch)

    def test_interrupted_submitters_pass_the_key_on(self):
        """A group whose every submitter is interrupted while waiting is
        dropped, and the key still reaches the groups behind it."""
        calls = []
        batcher, entered, release = self._echo_batcher(calls, max_batch=1)
        real_wait = batcher._cv.wait
        victims = set()

        def wait(timeout=None):
            real_wait(timeout)
            if threading.current_thread() in victims:
                raise KeyboardInterrupt

        batcher._cv.wait = wait
        interrupted = []

        def victim_fn(x):
            victims.add(threading.current_thread())
            try:
                batcher.submit("delta", (x, 0.0), ())
            except KeyboardInterrupt:
                interrupted.append(x)

        leader, _ = _spawn(batcher.submit, "delta", (0.0, 0.0), ())
        assert entered.wait(timeout=5)
        # Groups 2 and 3 lose their only submitter, whether still
        # queued or already handed over; group 4 runs.
        first = threading.Thread(target=victim_fn, args=(1.0,))
        first.start()
        _await_pending(batcher, 1)
        second = threading.Thread(target=victim_fn, args=(2.0,))
        second.start()
        _await_pending(batcher, 2)
        survivor, out = _spawn(batcher.submit, "delta", (3.0, 0.0), ())
        _await_pending(batcher, 3)
        release.set()
        _join([leader, first, second, survivor])
        assert sorted(interrupted) == [1.0, 2.0]
        assert out == [3.0]
        assert [c[1] for c in calls] == [[(0.0, 0.0)], [(3.0, 0.0)]]
        batcher._cv.wait = real_wait
        assert batcher.submit("delta", (4.0, 0.0), ()) == 4.0
        batcher.close()

    def test_base_exception_escaping_a_flush_releases_the_key(self):
        """An interrupt escaping the leader's flush fails its own
        request, hands the key to the queued group and lets close()
        return."""
        calls = []
        batcher, entered, release = self._echo_batcher(calls, max_batch=100)
        real_flush = batcher._flush

        def flush(group):
            if not calls:
                gated_fn = batcher._flush_fn
                gated_fn(group.method, group.queries, group.params,
                         group.spans, group.deadline)
                raise KeyboardInterrupt
            return real_flush(group)

        batcher._flush = flush
        leader, caught = _spawn(batcher.submit, "delta", (0.0, 0.0), ())
        assert entered.wait(timeout=5)
        follower, out = _spawn(batcher.submit, "delta", (1.0, 1.0), ())
        _await_pending(batcher, 1)
        release.set()
        _join([leader, follower])
        assert len(caught) == 1 and isinstance(caught[0], KeyboardInterrupt)
        assert out == [2.0]
        batcher.close()
        assert not batcher._queues

    def test_submit_after_close_raises(self):
        batcher, _, _ = self._echo_batcher([], max_batch=4)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit("delta", (0.0, 0.0), ())

    def test_concurrent_burst_coalesces_within_max_batch(self):
        sizes = []

        def flush_fn(method, queries, params, spans, deadline):
            sizes.append(len(queries))
            time.sleep(0.001)
            return [q[0] for q in queries]

        batcher = MicroBatcher(flush_fn, max_batch=4)
        start = threading.Barrier(8)
        answers = [[] for _ in range(8)]

        def client(tid):
            start.wait(timeout=10)
            for _ in range(25):
                answers[tid].append(
                    batcher.submit("delta", (float(tid), 0.0), ()))

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        _join(threads, timeout=30)
        batcher.close()
        assert answers == [[float(t)] * 25 for t in range(8)]
        assert batcher.submitted == sum(sizes) == 200
        assert 1 < batcher.submitted / batcher.flushes
        assert max(sizes) == batcher.largest_batch <= 4

    def test_leader_loop_fairness_hammer(self):
        """Eight threads under a tiny switch interval: every submit
        returns its own row, and no two flushes of one key ever run at
        once."""
        running, overlaps, lock = set(), [], threading.Lock()

        def flush_fn(method, queries, params, spans, deadline):
            with lock:
                if method in running:
                    overlaps.append(method)
                running.add(method)
            try:
                time.sleep(0)          # yield while the key is marked
                return [q[0] for q in queries]
            finally:
                with lock:
                    running.discard(method)

        batcher = MicroBatcher(flush_fn, max_batch=8)
        rows = [[] for _ in range(8)]

        def client(tid):
            for i in range(300):
                method = ("delta", "nonzero_nn")[i % 2]
                rows[tid].append(
                    batcher.submit(method, (float(tid), 0.0), ()))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not [t for t in threads if t.is_alive()]
        assert rows == [[float(tid)] * 300 for tid in range(8)]
        assert not overlaps
        assert batcher.pending == 0
        batcher.close()


class TestShardExecutor:
    def test_deterministic_across_shard_counts(self):
        """Sharded output is bitwise-equal to unsharded, any worker count."""
        index, extent = _disk_index(300)
        qs = _queries(700, extent)
        base_delta = index.batch_delta(qs)
        base_nn = index.batch_nonzero_nn(qs)
        base_quant = index.batch_quantify(qs[:60], epsilon=0.25)
        for workers in (1, 2, 3):
            with ShardExecutor(index, workers=workers,
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
            with ShardExecutor(index, workers=workers,
                               chunk_size=32) as executor:
                assert executor.run("quantify_exact", qs) == base
        # The inline fallback (no pool at all) walks the same chunks.
        with ShardExecutor(index, workers=1, chunk_size=32) as executor:
            assert executor.mode == "inline"
            assert executor.run("quantify_exact", qs) == base

    def test_all_methods_covered(self):
        pts = random_discrete_points(10, 3, seed=5, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(40, 10.0)
        with ShardExecutor(index, workers=2, chunk_size=8) as executor:
            assert executor.run("top_k", qs, {"k": 2}) == \
                index.batch_top_k(qs, k=2)
            assert executor.run("threshold_nn", qs, {"tau": 0.4}) == \
                index.batch_threshold_nn(qs, tau=0.4)

    def test_empty_batch(self):
        index, extent = _disk_index(20)
        with ShardExecutor(index, workers=2) as executor:
            result = executor.run("delta", np.empty((0, 2)))
            assert isinstance(result, np.ndarray) and result.shape == (0,)
            assert executor.run("nonzero_nn", []) == []

    def test_single_worker_is_inline(self):
        index, extent = _disk_index(20)
        with ShardExecutor(index, workers=1) as executor:
            assert executor.mode == "inline"
            qs = _queries(30, extent)
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))

    def test_unknown_method_rejected(self):
        index, _ = _disk_index(5)
        with ShardExecutor(index, workers=1) as executor:
            with pytest.raises(ValueError, match="unknown shardable"):
                executor.run("voronoi", np.zeros((1, 2)))

    def test_run_after_close_raises_cleanly(self):
        index, extent = _disk_index(20)
        executor = ShardExecutor(index, workers=2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run("delta", _queries(5, extent))

    def test_fallback_when_multiprocessing_unavailable(self, monkeypatch):
        """Sandboxes without process pools degrade instead of crashing:
        the executor takes the next rung of the one ladder, the thread
        backend."""
        def broken_get_context(method=None):
            raise ValueError(f"start method {method!r} unavailable")

        monkeypatch.setattr(process_module.multiprocessing, "get_context",
                            broken_get_context)
        index, extent = _disk_index(40)
        qs = _queries(50, extent)
        with ShardExecutor(index, workers=4) as executor:
            assert executor.mode == "thread"
            assert executor.workers == 4
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
        with ShardExecutor(index, workers=2) as executor:
            assert executor.mode == "thread"
            qs = _queries(20, extent)
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))
        assert callable(real_get_context)


class TestQueryService:
    def test_scalar_paths_match_index(self):
        index, extent = _disk_index(60)
        rng = random.Random(9)
        with index.serve(workers=0) as service:
            for _ in range(25):
                q = (rng.uniform(0, extent), rng.uniform(0, extent))
                assert service.query("delta", q) == index.delta(q)
                assert service.query("nonzero_nn", q) == index.nonzero_nn(q)
                assert service.query("quantify", q, epsilon=0.25) == \
                    index.quantify(q, epsilon=0.25)
                assert service.query("top_k", q, k=2, epsilon=0.25) == \
                    index.top_k_nn(q, 2, epsilon=0.25)
                assert service.query("threshold_nn", q, tau=0.4) == \
                    index.threshold_nn(q, 0.4)

    def test_quantify_exact_front_doors_match_index(self):
        pts = random_discrete_points(25, 3, seed=19, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(40, 10.0, seed=29)
        base = index.batch_quantify_exact(qs)
        with index.serve(workers=0, cache_capacity=64) as service:
            q0 = tuple(qs[0])
            assert service.query("quantify_exact", q0) == \
                index.quantify(q0, method="exact")
            assert service.query("quantify_exact", q0) == base[0]  # hit
            assert service.batch("quantify_exact", qs) == base
            with pytest.raises(TypeError, match="unknown parameters"):
                service.query("quantify_exact", q0, epsilon=0.1)
        # Uncached queries agree too.
        with index.serve(workers=0, cache_capacity=0, max_batch=8) as service:
            assert [service.query("quantify_exact", tuple(q))
                    for q in qs[:8]] == base[:8]

    def test_cache_hits_skip_engine(self):
        index, extent = _disk_index(30)
        with index.serve(workers=0, cache_capacity=64) as service:
            q = (1.5, 2.5)
            first = service.query("delta", q)
            calls = service.method_stats("delta")["batch_calls"]
            assert service.query("delta", q) == first
            assert service.method_stats("delta")["batch_calls"] == calls
            assert service.method_stats("delta")["cache_hits"] == 1

    def test_repeat_stream_hit_rate_and_engine_calls(self):
        index, extent = _disk_index(40)
        hot = [tuple(q) for q in _queries(50, extent, seed=47)]
        rng = random.Random(47)
        stream = [hot[rng.randrange(len(hot))] for _ in range(500)]
        with index.serve(workers=0, cache_capacity=8192) as service:
            for q in stream:
                service.query("nonzero_nn", q)
            snap = service.stats()
            # <= 50 distinct keys in 500 requests: ~90% hits.
            assert snap["cache"]["hit_rate"] >= 0.7
            assert snap["cache"]["entries"] <= 8192
            method = snap["methods"]["nonzero_nn"]
            assert method["requests"] == len(stream)
            # Every miss is one single-row engine call; hits skip it.
            assert method["batch_calls"] == method["cache_misses"]
            for q in hot[:10]:
                assert service.query("nonzero_nn", q) == index.nonzero_nn(q)

    def test_batch_empty(self):
        index, _ = _disk_index(10)
        with index.serve(workers=0) as service:
            deltas = service.batch("delta", [])
            assert isinstance(deltas, np.ndarray) and deltas.shape == (0,)
            assert service.batch("nonzero_nn", np.empty((0, 2))) == []

    def test_batch_bypasses_cache_and_matches(self):
        index, extent = _disk_index(40)
        qs = _queries(20, extent)
        with index.serve(workers=0, cache_capacity=128) as service:
            # Pre-warm half the rows as scalar queries.
            for x, y in qs[:10]:
                service.query("delta", (float(x), float(y)))
            assert np.array_equal(service.batch("delta", qs),
                                  index.batch_delta(qs))
            mstats = service.method_stats("delta")
            assert (mstats["cache_hits"], mstats["cache_misses"]) == (0, 10)
            assert len(service.cache) == 10  # nothing inserted

    def test_sharded_batch_bitwise_equal(self):
        index, extent = _disk_index(200)
        qs = _queries(900, extent)
        cfg = ServiceConfig(workers=2, shard_min_batch=100)
        with QueryService(index, cfg) as service:
            result = service.batch("delta", qs)
            assert np.array_equal(result, index.batch_delta(qs))
            mstats = service.method_stats("delta")
            if service.executor.mode != "inline":
                assert mstats["sharded_calls"] == 1

    def test_query_coalesces_and_agrees(self):
        index, extent = _disk_index(80)
        qs = [tuple(map(float, q)) for q in _queries(40, extent)]
        with index.serve(workers=0, max_batch=16, cache_capacity=0) as service:
            batcher = service.batcher
            batcher._flush_fn, entered, release = _gated(batcher._flush_fn)
            leader, first = _spawn(service.query, "nonzero_nn", qs[0])
            assert entered.wait(timeout=5)
            queued = [_spawn(service.query, "nonzero_nn", q)
                      for q in qs[1:]]
            _await_pending(batcher, len(qs) - 1)
            release.set()
            _join([leader] + [t for t, _ in queued])
            results = first + [out[0] for _, out in queued]
            assert results == index.batch_nonzero_nn(np.array(qs))
            # Flush 1 held one row; 39 queued rows / max 16 -> 3 more.
            assert batcher.flushes == 4
            assert batcher.largest_batch == 16

    def test_params_canonicalized_for_cache(self):
        """auto resolves to a concrete method, so spellings share entries."""
        pts = random_discrete_points(6, 2, seed=11, spread=2.0)
        index = PNNIndex(pts)
        with index.serve(workers=0, cache_capacity=32) as service:
            q = (1.0, 1.0)
            a = service.query("quantify", q, method="auto", epsilon=0.25)
            b = service.query("quantify", q, method="spiral", epsilon=0.25)
            assert a == b
            assert service.method_stats("quantify")["cache_hits"] == 1

    def test_unknown_method_and_params_rejected(self):
        index, _ = _disk_index(5)
        with index.serve(workers=0) as service:
            with pytest.raises(ValueError, match="unknown query method"):
                service.query("nearest", (0.0, 0.0))
            with pytest.raises(TypeError, match="no parameters"):
                service.query("delta", (0.0, 0.0), epsilon=0.1)
            with pytest.raises(TypeError, match="unknown parameters"):
                service.query("quantify", (0.0, 0.0), tau=0.5)

    def test_stats_snapshot_shape(self):
        index, extent = _disk_index(25)
        with index.serve(workers=0, cache_capacity=16, max_batch=4) as service:
            service.query("delta", (1.0, 1.0))
            service.query("delta", (1.0, 1.0))
            snap = service.stats()
            assert snap["total_requests"] == 2
            method = snap["methods"]["delta"]
            assert method["cache_hits"] == 1
            assert method["p99_ms"] >= method["p50_ms"] >= 0.0
            assert snap["cache"] == {
                "entries": 1, "capacity": 16, "evictions": 0,
                "evictions_by_kind": {}, "hits": 1, "misses": 1,
                "hit_rate": 0.5}
            assert snap["coalescer"]["pending"] == 0

    def test_close_is_idempotent_and_drains(self):
        index, extent = _disk_index(15)
        service = index.serve(workers=0, max_batch=2, cache_capacity=0)
        batcher = service.batcher
        inner, flushed = batcher._flush_fn, []

        def counting(method, queries, *rest):
            rows = inner(method, queries, *rest)
            flushed.extend(queries)
            return rows

        batcher._flush_fn, entered, release = _gated(counting)
        qs = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (0.5, 4.0)]
        leader, _ = _spawn(service.query, "delta", qs[0])
        assert entered.wait(timeout=5)
        queued = [_spawn(service.query, "delta", q) for q in qs[1:]]
        _await_pending(batcher, len(qs) - 1)
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=0.05)
        assert closer.is_alive()          # held by the running flush
        release.set()
        _join([closer])
        # Every queued row was flushed by the time close() returned.
        assert sorted(flushed) == sorted(qs)
        _join([leader] + [t for t, _ in queued])
        assert [out[0] for _, out in queued] == \
            [index.delta(q) for q in qs[1:]]
        service.close()  # second close is a no-op

    def test_serve_rejects_config_plus_overrides(self):
        index, _ = _disk_index(5)
        with pytest.raises(TypeError):
            index.serve(ServiceConfig(), workers=2)


class TestServiceConfigValidation:
    def test_defaults_are_valid(self):
        ServiceConfig()  # must not raise

    @pytest.mark.parametrize("backend", ["gpu", "thread", "process",
                                         "inline"])
    def test_backend_other_than_auto_rejected(self, backend):
        with pytest.raises(ValueError, match="backend must be 'auto'"):
            ServiceConfig(backend=backend)

    @pytest.mark.parametrize("field,value", [
        ("workers", -1),
        ("max_batch", 0),
        ("max_batch", -5),
        ("shard_min_batch", 0),
        ("shard_chunk", 0),
        ("flush_window", 0.0),
        ("flush_window", -1.0),
        ("cache_capacity", -1),
    ])
    def test_non_positive_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_flush_window_is_accepted_and_inert(self):
        # A window far longer than the test still answers a lone query
        # at once: the field no longer drives any timer.
        index, _ = _disk_index(10)
        before = set(threading.enumerate())
        with index.serve(ServiceConfig(workers=0, cache_capacity=0,
                                       flush_window=30.0)) as service:
            assert service.query("delta", (1.0, 1.0)) == \
                index.delta((1.0, 1.0))
            assert not set(threading.enumerate()) - before

    def test_zero_disables_are_allowed(self):
        # 0 means "off" for these — not a size error.
        ServiceConfig(workers=0, cache_capacity=0)

    @pytest.mark.parametrize("field", ["cache_cell_size",
                                       "cache_batch_limit"])
    def test_retired_fields_rejected(self, field):
        # Keys are exact coordinates only, and batches never consult the
        # cache: a region pitch or a row-wise batch limit is an unknown
        # field on the config and on the index.serve shortcut alike, so
        # it cannot be silently ignored.
        with pytest.raises(TypeError, match=field):
            ServiceConfig(**{field: 1})
        index, _ = _disk_index(5)
        with pytest.raises(TypeError, match=field):
            index.serve(workers=0, **{field: 1})

    def test_unknown_query_kind_rejected_with_known_list(self):
        index, _ = _disk_index(5)
        with index.serve(workers=0) as service:
            with pytest.raises(ValueError, match="quantify_vpr"):
                service.query("voronoi", (0.0, 0.0))


class TestResultCacheConcurrency:
    """The cache under concurrent access (the thread backend's world): stats must not be corrupted and snapshots must stay
    consistent while other threads churn the store."""

    def test_concurrent_get_put_stays_bounded_and_uncorrupted(self):
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
        _join(threads, timeout=30)
        assert not errors
        assert len(cache) <= 64
        assert cache.snapshot()["entries"] == len(cache)

    def test_snapshot_consistent_during_churn(self):
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
                assert sum(snap["evictions_by_kind"].values()) == \
                    snap["evictions"]
        finally:
            stop.set()
            _join([thread])

    def test_thread_backend_service_stats_not_corrupted(self):
        """A caching service hammered from many client threads over the
        thread backend keeps its accounting exact."""
        pts = random_discrete_points(15, 3, seed=21, spread=2.0)
        index = PNNIndex(pts)
        requests_per_thread = 50
        n_threads = 6
        beacons = [(1.0 + i, 2.0 + i) for i in range(5)]
        with on_rung("thread") as workers, \
                index.serve(workers=workers, cache_capacity=256) as service:
            errors = []

            def client(tid):
                try:
                    rng = random.Random(tid)
                    for _ in range(requests_per_thread):
                        service.query("quantify_exact",
                                      beacons[rng.randrange(len(beacons))])
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            _join(threads, timeout=60)
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
        with index.serve(workers=0, cache_capacity=64) as service:
            for q in qs[:10]:
                assert service.query("quantify_vpr", q) == \
                    index.quantify(q, method="exact")
            batch = service.batch("quantify_vpr", np.array(qs))
            assert batch == index.batch_quantify_exact(np.array(qs))
            with pytest.raises(TypeError, match="no parameters"):
                service.query("quantify_vpr", qs[0], epsilon=0.1)
        # Uncached queries agree too.
        with index.serve(workers=0, cache_capacity=0, max_batch=8) as service:
            assert [service.query("quantify_vpr", q) for q in qs[:8]] == \
                index.batch_quantify_exact(np.array(qs[:8]))

    def test_prebuilt_vpr_adopted(self):
        index = self._fleet(n=8, seed=5)
        vpr = index.build_vpr()
        with index.serve(vpr=vpr, workers=0) as service:
            assert index._vpr is vpr
            q = (1.0, 1.0)
            assert service.query("quantify_vpr", q) == \
                index.quantify(q, method="exact")

    def test_prebuilt_vpr_size_mismatch_rejected(self):
        index = self._fleet(n=8, seed=5)
        other = self._fleet(n=6, seed=9)
        with pytest.raises(ValueError, match="prebuilt V_Pr"):
            index.serve(vpr=other.build_vpr(), workers=0)

    def test_non_discrete_index_raises(self):
        index, _ = _disk_index(6)
        with index.serve(workers=0) as service:
            with pytest.raises(ValueError, match="discrete"):
                service.query("quantify_vpr", (0.0, 0.0))

    def test_large_batches_only_shard_on_index_sharing_backends(self):
        """quantify_vpr must not fan out to process worker replicas
        (each would rebuild its own Theta(N^4) diagram and ignore an
        adopted prebuilt one); the index-sharing thread backend shards."""
        index = self._fleet(n=8, seed=5)
        rng = random.Random(37)
        qs = np.array([(rng.uniform(-1, 7), rng.uniform(-1, 7))
                       for _ in range(300)])
        expected = index.batch_quantify_exact(qs)
        for rung, fans_out in (("process", False), ("thread", True)):
            with on_rung(rung) as workers:
                service = QueryService(index, ServiceConfig(
                    workers=workers, shard_min_batch=100))
            with service:
                assert service.executor.mode == rung
                assert service.batch("quantify_vpr", qs) == expected
                mstats = service.method_stats("quantify_vpr")
                assert mstats["sharded_calls"] == (1 if fans_out else 0)
                # The other kinds still fan out on every live backend.
                service.batch("quantify_exact", qs)
                assert service.method_stats(
                    "quantify_exact")["sharded_calls"] == 1


class TestServiceLifecycle:
    def test_service_del_closes_executor(self):
        index, _ = _disk_index(20)
        service = index.serve(workers=2)
        executor = service.executor
        impl = executor.impl
        del service
        import gc

        gc.collect()
        assert executor._closed
        assert impl.closed

    def test_executor_del_closes_backend(self):
        index, _ = _disk_index(20)
        executor = ShardExecutor(index, workers=2)
        impl = executor.impl
        del executor
        import gc

        gc.collect()
        assert impl.closed

    @pytest.mark.parametrize("rung", LADDER)
    def test_double_close_every_rung(self, rung):
        index, _ = _disk_index(15)
        with on_rung(rung) as workers:
            executor = ShardExecutor(index, workers=workers)
            assert executor.mode == rung
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


def test_lone_query_runs_inline_without_a_coalescer_thread():
    """A lone query is answered as its own one-row flush, and an open
    service runs no coalescer thread."""
    index, extent = _disk_index(30)
    before = set(threading.enumerate())
    with index.serve(workers=0, max_batch=10_000,
                     cache_capacity=0) as service:
        assert service.query("delta", (1.0, 1.0)) == index.delta((1.0, 1.0))
        assert not set(threading.enumerate()) - before
        co = service.stats()["coalescer"]
        assert (co["submitted"], co["flushes"], co["pending"]) == (1, 1, 0)


class TestMicroBatcherCloseRace:
    """close() must be drain-or-fail atomic against concurrent flushes:
    every request accepted before the closed flag is answered by the
    time close() returns, even when its group is still queued behind a
    leader's running flush or is itself mid-engine."""

    def test_close_waits_for_inflight_inline_flush(self):
        release = threading.Event()
        entered = threading.Event()

        def slow_flush(method, queries, params, spans, deadline):
            entered.set()
            release.wait(timeout=10)
            return [q[0] for q in queries]

        batcher = MicroBatcher(slow_flush, max_batch=1)
        # The key is idle, so the submit leads and runs its own group
        # inline: close() must wait for that running flush.
        sub, out = _spawn(batcher.submit, "delta", (7.0, 0.0), ())
        assert entered.wait(timeout=5)
        clo, _ = _spawn(batcher.close)
        # close() must be blocked on the in-flight group, not returned.
        clo.join(timeout=0.1)
        assert clo.is_alive()
        release.set()
        _join([sub, clo], timeout=5)
        assert out == [7.0]

    def test_close_vs_submit_hammer_no_stranded_request(self):
        """Spam submits from many threads while closing: every accepted
        request is flushed when close() returns; late submits raise."""
        for trial in range(5):
            flushed = []

            def flush_fn(method, queries, params, spans, deadline):
                time.sleep(0.0005)  # widen the running-flush window
                flushed.append(len(queries))
                return [q[0] for q in queries]

            batcher = MicroBatcher(flush_fn, max_batch=2)
            answered = [[] for _ in range(4)]

            def spam(tid):
                while True:
                    try:
                        row = batcher.submit("delta", (float(tid), 0.0), ())
                    except RuntimeError:
                        return  # closed — expected shutdown signal
                    answered[tid].append(row)

            threads = [threading.Thread(target=spam, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.01)
            batcher.close()
            # The moment close() returns, nothing may still be pending:
            # sample *now*, before the spammers get a chance to finish.
            assert sum(flushed) == batcher.submitted, (
                f"trial {trial}: close() returned with "
                f"{batcher.submitted - sum(flushed)} rows unflushed")
            _join(threads)
            assert sum(map(len, answered)) == batcher.submitted
            for tid, rows in enumerate(answered):
                assert rows == [float(tid)] * len(rows)

    def test_concurrent_closers_both_drain(self):
        flushed = []

        def flush_fn(method, queries, params, spans, deadline):
            flushed.extend(q[0] for q in queries)
            return [q[0] for q in queries]

        gated_fn, entered, release = _gated(flush_fn)
        batcher = MicroBatcher(gated_fn, max_batch=2)
        leader, _ = _spawn(batcher.submit, "delta", (0.0, 0.0), ())
        assert entered.wait(timeout=5)
        queued = [_spawn(batcher.submit, "delta", (float(i), 0.0), ())
                  for i in range(1, 6)]
        _await_pending(batcher, 5)
        closers = [threading.Thread(target=batcher.close)
                   for _ in range(3)]
        for t in closers:
            t.start()
        time.sleep(0.05)
        assert all(t.is_alive() for t in closers)
        release.set()
        _join(closers)
        # Each closer returned only after all six rows were flushed.
        assert sorted(flushed) == [float(i) for i in range(6)]
        assert batcher.pending == 0 and not batcher._queues
        _join([leader] + [t for t, _ in queued])
        assert [out[0] for _, out in queued] == \
            [float(i) for i in range(1, 6)]


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

"""Chaos suite for the resilience layer (:mod:`repro.serving.faults`).

The inviolable contract under fault injection mirrors the executor
parity grid: **a request that survives its faults returns answers
bitwise-identical to the unsharded oracle**, on every backend, no matter
how many workers crashed, hung, or raised along the way.  On top of
that, this suite pins the operational semantics:

* retried chunks complete within ``retries + 1`` dispatch attempts and
  increment the resilience counters exactly as many times as failures
  actually happened (the SIGKILL test asserts exactly-once accounting);
* a deadline expires within about one poll interval of its budget,
  raising :class:`DeadlineExceeded` without stranding inflight state —
  over HTTP, the 504 leaves the admission gauges at zero;
* the circuit breaker only trips on *consecutive* failures and walks
  the process -> thread -> inline ladder, after which unfaulted
  traffic keeps answering correctly;
* :class:`FaultPlan` parsing and firing are deterministic — the same
  seed produces the same chaos, which is what makes these tests
  repeatable at all.
"""

import os
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.serving import ShardExecutor
from repro.serving.faults import (
    FAULTS_ENV,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    WorkerFailure,
)

ALL_BACKENDS = ("inline", "thread", "process")
POOL_BACKENDS = ("process",)
#: Wall-time bound on a run that heals one injected failure (detect,
#: retry or rebuild, re-dispatch): a guard against wedged teardown.
MAX_RECOVERY_S = 10.0


@pytest.fixture(scope="module")
def fleet():
    index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
    rng = random.Random(41)
    qs = np.array([(rng.uniform(-2.0, 16.0), rng.uniform(-2.0, 16.0))
                   for _ in range(48)])
    return index, qs, index.batch_delta(qs)


def _executor(index, backend, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("chunk_size", 8)
    return ShardExecutor(index.points, backend=backend, index=index, **kw)


# ----------------------------------------------------------------------
# Units: Deadline / RetryPolicy / CircuitBreaker.
# ----------------------------------------------------------------------

class TestDeadline:
    def test_from_timeout_ms(self):
        d = Deadline.from_timeout_ms(50)
        assert not d.expired and 0 < d.remaining() <= 0.05
        time.sleep(0.06)
        assert d.expired and d.remaining() == 0.0

    def test_raise_if_expired(self):
        d = Deadline.from_timeout_ms(0.01)
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded):
            d.raise_if_expired("ctx")

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        d = Deadline.from_timeout_ms(100)
        assert Deadline.coerce(d) is d
        assert 0.4 < Deadline.coerce(0.5).remaining() <= 0.5

    def test_merge_is_laxest(self):
        tight = Deadline.from_timeout_ms(10)
        loose = Deadline.from_timeout_ms(10_000)
        assert Deadline.merge(tight, loose) is loose
        assert Deadline.merge(loose, tight) is loose
        # A member with no deadline relaxes the whole group.
        assert Deadline.merge(tight, None) is None
        assert Deadline.merge(None, tight) is None


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(backoff=0.1, backoff_factor=2.0, backoff_max=0.35)
        assert p.backoff_for(0) == pytest.approx(0.1)
        assert p.backoff_for(1) == pytest.approx(0.2)
        assert p.backoff_for(2) == pytest.approx(0.35)  # capped
        assert p.backoff_for(9) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self):
        b = CircuitBreaker(threshold=3)
        assert not b.record_failure()
        assert not b.record_failure()
        assert b.record_failure()  # third consecutive -> trip
        snap = b.snapshot()
        assert snap["trips"] == 1 and snap["consecutive_failures"] == 0

    def test_success_resets_the_count(self):
        b = CircuitBreaker(threshold=2)
        assert not b.record_failure()
        b.record_success()
        assert not b.record_failure()  # count restarted
        assert b.record_failure()


# ----------------------------------------------------------------------
# FaultPlan: parsing, round-trips, deterministic firing.
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_compact_parse(self):
        plan = FaultPlan.coerce(
            "crash_worker:chunk=0;"
            "slow_chunk:method=delta,delay=0.5,attempts=any;seed:9")
        assert plan.seed == 9 and len(plan.specs) == 2
        crash, slow = plan.specs
        assert crash.kind == "crash_worker" and crash.chunk == 0
        assert slow.method == "delta" and slow.delay == 0.5
        assert slow.attempts == ()  # any

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.coerce("meteor_strike:chunk=0")

    def test_dict_roundtrip(self):
        plan = FaultPlan([FaultSpec("raise_in_compute", method="delta",
                                    chunk=1, attempts=(0, 1), p=0.5)],
                         seed=4)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()

    def test_fires_is_deterministic(self):
        plan = FaultPlan([FaultSpec("raise_in_compute", p=0.5,
                                    attempts=())], seed=11)
        clone = FaultPlan.from_dict(plan.to_dict())
        decisions = [plan.fires(plan.specs[0], "delta", c, 0)
                     for c in range(64)]
        assert decisions == [clone.fires(clone.specs[0], "delta", c, 0)
                             for c in range(64)]
        assert True in decisions and False in decisions  # p=0.5 really mixes

    def test_perturb_raises(self):
        plan = FaultPlan.coerce("raise_in_compute:chunk=2")
        with pytest.raises(FaultInjected):
            plan.perturb("delta", chunk=2, attempt=0)
        plan.perturb("delta", chunk=1, attempt=0)   # wrong chunk: no-op
        plan.perturb("delta", chunk=2, attempt=1)   # wrong attempt: no-op

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang_chunk:chunk=3,delay=9")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.specs[0].delay == 9.0
        monkeypatch.delenv(FAULTS_ENV)
        assert FaultPlan.from_env() is None


# ----------------------------------------------------------------------
# Executor-level chaos: parity under injected failure, every backend.
# ----------------------------------------------------------------------

class TestRecovery:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_raise_fault_retries_with_parity(self, fleet, backend):
        index, qs, oracle = fleet
        ex = _executor(index, backend, faults="raise_in_compute:chunk=1")
        try:
            t0 = time.perf_counter()
            out = ex.run("delta", qs)
            assert time.perf_counter() - t0 < MAX_RECOVERY_S
            np.testing.assert_array_equal(out, oracle)
            # Within retries + 1 attempts, counted exactly once.
            assert ex.resilience["retries"].get() == 1
            assert ex.resilience["worker_failures"].get() == 1
            assert ex.resilience["faults_injected"].get() == 1
            assert not ex.degraded
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_crash_worker_rebuilds_pool(self, fleet, backend):
        index, qs, oracle = fleet
        ex = _executor(index, backend, faults="crash_worker:chunk=0")
        try:
            t0 = time.perf_counter()
            out = ex.run("delta", qs)
            assert time.perf_counter() - t0 < MAX_RECOVERY_S
            np.testing.assert_array_equal(out, oracle)
            assert ex.resilience["rebuilds"].get() >= 1
            assert ex.resilience["worker_failures"].get() >= 1
            assert ex.resilience["retries"].get() >= 1
            assert not ex.degraded  # healed in place, no ladder walk
        finally:
            ex.close()

    def test_hang_watchdog_quarantines_pool(self, fleet):
        index, qs, oracle = fleet
        ex = _executor(index, "process",
                       policy=RetryPolicy(retries=2, chunk_timeout=0.3),
                       faults="hang_chunk:chunk=0,delay=5")
        try:
            t0 = time.perf_counter()
            out = ex.run("delta", qs)
            elapsed = time.perf_counter() - t0
            np.testing.assert_array_equal(out, oracle)
            assert elapsed < 4.0  # did not wait out the 5 s hang
            assert ex.resilience["rebuilds"].get() >= 1
        finally:
            ex.close()

    def test_dispose_spares_a_lock_held_by_a_live_thread(self):
        """A live parent thread may hold a pool queue lock while the pool
        is disposed (the task handler sends its exit sentinel under
        ``outqueue._wlock``).  Disposal waits that hold out instead of
        releasing the lock from under its holder, whose own release()
        would then raise."""
        import multiprocessing

        from repro.serving.executors.process import _dispose

        pool = multiprocessing.get_context("spawn").Pool(1)
        lock = pool._outqueue._wlock
        held = threading.Event()
        errors = []

        def holder():
            lock.acquire()
            held.set()
            time.sleep(0.3)
            try:
                lock.release()
            except ValueError as exc:
                errors.append(exc)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(5)
        assert _dispose(pool)
        thread.join(5)
        assert not thread.is_alive()
        assert errors == []

    def test_exhausted_retries_raise_worker_failure(self, fleet):
        index, qs, _ = fleet
        # Fault only chunk 0, every attempt; sibling chunks succeed, so
        # the breaker (consecutive failures) never trips and the chunk
        # runs out its attempt budget instead.
        ex = _executor(index, "thread",
                       policy=RetryPolicy(retries=1, backoff=0.01),
                       faults="raise_in_compute:chunk=0,attempts=any")
        try:
            with pytest.raises(WorkerFailure):
                ex.run("delta", qs)
            assert ex.resilience["worker_failures"].get() == 2  # 1 + 1 retry
        finally:
            ex.close()


class TestDeadlines:
    @pytest.mark.parametrize("backend", ("process", "thread"))
    def test_expiry_is_prompt_and_counted(self, fleet, backend):
        index, qs, _ = fleet
        # chunk=1: the thread backend runs the first chunk of an unseen
        # method synchronously (lazy-structure warm-up), which cannot be
        # preempted — hanging a later, asynchronous chunk keeps the
        # timing assertion sharp on both backends.
        ex = _executor(index, backend, faults="hang_chunk:chunk=1,delay=5")
        try:
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                ex.run("delta", qs, deadline=Deadline.from_timeout_ms(300))
            elapsed = time.perf_counter() - t0
            # Within the deadline plus one poll interval (plus margin).
            assert 0.25 <= elapsed < 1.0
            assert ex.resilience["deadline_exceeded"].get() == 1
        finally:
            ex.close()

    def test_second_run_unaffected_by_abandoned_chunks(self, fleet):
        index, qs, oracle = fleet
        ex = _executor(index, "process",
                       faults="hang_chunk:chunk=1,delay=2,attempts=0")
        try:
            with pytest.raises(DeadlineExceeded):
                ex.run("delta", qs, deadline=Deadline.from_timeout_ms(250))
            # Attempt numbering restarts per run: the hang fires again,
            # but with no deadline the retry path just rides it out via
            # the pending handle (fresh dispatch, attempt 1 is clean)..
            out = ex.run("delta", qs,
                         deadline=Deadline.from_timeout_ms(30_000))
            np.testing.assert_array_equal(out, oracle)
        finally:
            ex.close()


class TestDegradation:
    def test_breaker_walks_ladder_to_inline(self, fleet):
        index, qs, _ = fleet
        ex = _executor(index, "process",
                       policy=RetryPolicy(retries=1, backoff=0.01),
                       breaker=CircuitBreaker(threshold=2),
                       faults="raise_in_compute:attempts=any")
        try:
            with pytest.raises(WorkerFailure):
                ex.run("delta", qs)
            assert ex.degraded and ex.mode == "inline"
            assert ex.resilience["degradations"].get() == 2  # -> thread -> inline
            assert ex.resilience["breaker_trips"].get() >= 2
        finally:
            ex.close()

    def test_failed_rebuild_degrades_process_to_thread(self, fleet,
                                                       monkeypatch):
        """A crashed pool that cannot restart walks one rung down the
        ladder at once, and the lost chunk is answered there."""
        from repro.serving.executors import BackendUnavailable, \
            ProcessBackend

        def no_restart(self):
            raise BackendUnavailable("pool cannot restart")

        index, qs, oracle = fleet
        monkeypatch.setattr(ProcessBackend, "rebuild", no_restart)
        ex = _executor(index, "process", faults="crash_worker:chunk=0")
        try:
            if ex.mode != "process":
                pytest.skip("process pools unavailable on this host")
            out = ex.run("delta", qs)
            np.testing.assert_array_equal(out, oracle)
            assert ex.degraded and ex.mode == "thread"
            assert ex.resilience["rebuilds"].get() == 1
            assert ex.resilience["degradations"].get() == 1
        finally:
            ex.close()

    def test_degraded_executor_still_answers(self, fleet):
        index, qs, oracle = fleet
        ex = _executor(index, "thread",
                       policy=RetryPolicy(retries=1, backoff=0.01),
                       breaker=CircuitBreaker(threshold=2),
                       faults="raise_in_compute:method=nonzero_nn,"
                              "attempts=any")
        try:
            with pytest.raises(WorkerFailure):
                ex.run("nonzero_nn", qs)
            assert ex.degraded and ex.mode == "inline"
            # The unfaulted kind keeps bitwise parity on the fallback.
            np.testing.assert_array_equal(ex.run("delta", qs), oracle)
            assert ex.health()["degraded"] is True
        finally:
            ex.close()


class TestSigkill:
    def test_sigkill_mid_batch_counts_exactly_once(self, fleet):
        """Satellite (d): SIGKILL a live pool worker mid-batch.

        One chunk (chunk_size >= m) held in flight by a slow fault, all
        pool workers killed underneath it: the run must still match the
        unsharded oracle bitwise, with the retry/failure counters
        incremented exactly once each.
        """
        index, qs, oracle = fleet
        ex = _executor(index, "process", chunk_size=len(qs),
                       faults="slow_chunk:chunk=0,delay=2")
        results, errors = [], []

        def run():
            try:
                results.append(ex.run("delta", qs))
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        try:
            t = threading.Thread(target=run)
            t.start()
            time.sleep(0.5)  # the single chunk is mid-sleep in a worker
            pids = ex.impl._worker_pids()
            assert pids, "no live pool workers to kill"
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            t.join(timeout=30)
            assert not t.is_alive() and not errors, f"run failed: {errors}"
            np.testing.assert_array_equal(results[0], oracle)
            # Exactly one pending chunk was lost to exactly one death
            # event: each counter moved once, no double accounting.
            assert ex.resilience["worker_failures"].get() == 1
            assert ex.resilience["retries"].get() == 1
            assert ex.resilience["rebuilds"].get() == 1
            assert ex.resilience["faults_injected"].get() == 0
            assert not ex.degraded
        finally:
            ex.close()


# ----------------------------------------------------------------------
# Service + HTTP: deadlines surface as 504, admission state stays clean.
# ----------------------------------------------------------------------

class TestHttpResilience:
    def _scrape(self, port):
        from repro.serving.smoke import _http_json

        _, _, raw, _ = _http_json(port, "GET", "/metrics")
        values = {}
        for line in raw.splitlines():
            if line.startswith("#") or " " not in line:
                continue
            name, _, value = line.rpartition(" ")
            base = name.partition("{")[0]
            values[base] = values.get(base, 0.0) + float(value)
        return values

    def test_deadline_504_leaves_no_inflight_slots(self, fleet):
        from repro.serving.http import HttpConfig, ServerThread
        from repro.serving.smoke import _http_json

        index, qs, _ = fleet
        service = index.serve(workers=2, backend="process",
                              shard_min_batch=8, shard_chunk=8,
                              cache_capacity=0, coalesce=False,
                              faults="hang_chunk:chunk=0,delay=2,"
                                     "attempts=any")
        config = HttpConfig(port=0, max_inflight=2, max_pending=2,
                            warm_kinds=("delta",))
        with service, ServerThread(service, config) as server:
            port = server.port
            deadline_at = time.monotonic() + 30
            while time.monotonic() < deadline_at:
                if _http_json(port, "GET", "/healthz")[0] == 200:
                    break
                time.sleep(0.05)
            t0 = time.perf_counter()
            status, doc, _, _ = _http_json(
                port, "POST", "/v1/query/delta",
                {"queries": [list(q) for q in qs], "timeout_ms": 300})
            elapsed = time.perf_counter() - t0
            assert status == 504 and doc["deadline_exceeded"] is True
            assert elapsed < 1.5  # deadline + one poll interval + HTTP
            time.sleep(0.1)
            metrics = self._scrape(port)
            assert metrics["repro_http_inflight"] == 0
            assert metrics["repro_http_pending"] == 0
            assert metrics["repro_deadline_exceeded_total"] == 1
            # The slot freed by the 504 is genuinely reusable.
            status, _, _, _ = _http_json(
                port, "POST", "/v1/query/nonzero_nn",
                {"queries": [list(q) for q in qs]})
            assert status == 200

    def test_default_timeout_applies_without_request_field(self, fleet):
        from repro.serving.http import HttpConfig, ServerThread
        from repro.serving.smoke import _http_json

        index, qs, _ = fleet
        service = index.serve(workers=2, backend="process",
                              shard_min_batch=8, shard_chunk=8,
                              cache_capacity=0, coalesce=False,
                              default_timeout=0.3,
                              faults="hang_chunk:chunk=0,delay=2,"
                                     "attempts=any")
        config = HttpConfig(port=0, warm_kinds=())
        with service, ServerThread(service, config) as server:
            port = server.port
            deadline_at = time.monotonic() + 30
            while time.monotonic() < deadline_at:
                if _http_json(port, "GET", "/healthz")[0] == 200:
                    break
                time.sleep(0.05)
            status, doc, _, _ = _http_json(
                port, "POST", "/v1/query/delta",
                {"queries": [list(q) for q in qs]})
            assert status == 504 and doc["deadline_exceeded"] is True

    def test_client_disconnect_frees_pending_slot(self, fleet):
        """Satellite (c): a queued request whose client hung up must
        give its pending-queue slot back and be accounted as a 499."""
        import json as json_mod
        import socket

        from repro.serving.http import HttpConfig, ServerThread
        from repro.serving.smoke import _http_json

        index, _, _ = fleet
        service = index.serve(workers=0, cache_capacity=0, coalesce=False)
        config = HttpConfig(port=0, max_inflight=1, max_pending=4,
                            warm_kinds=())
        with service, ServerThread(service, config) as server:
            port = server.port
            gw = server.gateway
            deadline_at = time.monotonic() + 30
            while time.monotonic() < deadline_at:
                if _http_json(port, "GET", "/healthz")[0] == 200:
                    break
                time.sleep(0.05)
            gate = threading.Event()
            original = gw._run_bulk
            gw._run_bulk = lambda k, r, p, d=None: (gate.wait(30),
                                                    original(k, r, p, d))[1]
            holder = threading.Thread(
                target=lambda: _http_json(port, "POST", "/v1/query/delta",
                                          {"queries": [[0.0, 0.0]]}))
            try:
                holder.start()
                deadline_at = time.monotonic() + 10
                while gw._inflight < 1 and time.monotonic() < deadline_at:
                    time.sleep(0.01)
                assert gw._inflight == 1
                body = json_mod.dumps({"queries": [[1.0, 1.0]]}).encode()
                sock = socket.create_connection(("127.0.0.1", port))
                sock.sendall(b"POST /v1/query/delta HTTP/1.1\r\n"
                             b"Host: t\r\nContent-Type: application/json\r\n"
                             b"Content-Length: %d\r\n\r\n%s"
                             % (len(body), body))
                deadline_at = time.monotonic() + 10
                while gw._pending < 1 and time.monotonic() < deadline_at:
                    time.sleep(0.01)
                assert gw._pending == 1
                sock.close()  # client gives up while queued
                deadline_at = time.monotonic() + 10
                while (gw._pending > 0 or gw.disconnects_total.get() < 1) \
                        and time.monotonic() < deadline_at:
                    time.sleep(0.01)
                assert gw._pending == 0
                assert gw.disconnects_total.get() == 1
                assert gw.requests_total.get(("delta", 499)) == 1
            finally:
                gate.set()
                holder.join(timeout=30)
                gw._run_bulk = original

    def test_retry_after_tracks_queue_depth(self, fleet):
        from repro.serving.http import HttpConfig, QueryGateway

        index, _, _ = fleet
        service = index.serve(workers=0, cache_capacity=0, coalesce=False)
        with service:
            gw = QueryGateway(service, HttpConfig(port=0))
            # No drain data, small backlog: the depth itself, floored.
            gw._pending, gw._inflight = 0, 0
            assert gw._retry_after() == 1
            gw._pending, gw._inflight = 3, 1
            assert gw._retry_after() == 4
            # Huge backlog with no throughput signal: clamped to 30.
            gw._pending = 10_000
            assert gw._retry_after() == 30
            # A measured drain rate scales the estimate: ~2 req/s
            # against 4 queued -> ceil(2) seconds.
            now = time.monotonic()
            gw._completions.extend(now - 2.0 + i * 0.5 for i in range(5))
            gw._pending, gw._inflight = 3, 1
            assert 1 <= gw._retry_after() <= 3
            gw.request_log.close()


class TestServiceConfigFaults:
    def test_faults_coerced_eagerly(self, fleet):
        index, _, _ = fleet
        service = index.serve(workers=2, backend="thread",
                              faults="raise_in_compute:chunk=0")
        with service:
            assert isinstance(service.config.faults, FaultPlan)
            assert service.executor.faults is service.config.faults

    def test_env_plan_picked_up(self, fleet, monkeypatch):
        index, _, _ = fleet
        monkeypatch.setenv(FAULTS_ENV, "slow_chunk:delay=0.01")
        service = index.serve(workers=2, backend="thread")
        with service:
            assert isinstance(service.config.faults, FaultPlan)

    def test_invalid_plan_rejected(self, fleet):
        index, _, _ = fleet
        with pytest.raises(ValueError):
            index.serve(workers=2, backend="thread", faults="nope:chunk=0")

    def test_stats_surface_resilience(self, fleet):
        index, qs, _ = fleet
        service = index.serve(workers=2, backend="thread",
                              shard_min_batch=8, shard_chunk=8,
                              cache_capacity=0, coalesce=False,
                              faults="raise_in_compute:chunk=0")
        with service:
            service.batch("delta", qs)
            snap = service.stats()
            assert snap["resilience"]["retries"] == 1
            assert snap["executor"]["degraded"] is False
            assert "breaker" in snap["executor"]

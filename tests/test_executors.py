"""Property tests for the executor backends.

The inviolable contract: **every rung of the ladder returns
bitwise-identical results to the unsharded ``PNNIndex.batch_*`` call,
for every query kind, at every worker count and chunking.**  These tests
pin that grid — all seven shardable kinds x every rung (reached the way
a host reaches it, :func:`repro.testing.rungs.on_rung`) x worker counts
— plus the factory's host policy and the worker lifecycle (idempotent
close, ``__del__`` teardown, no leaked pools).
"""

import math
import os
import random

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, random_disks
from repro.serving import ShardExecutor
from repro.serving.executors import (
    LADDER,
    BackendUnavailable,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    create_backend,
    reassemble,
)
from repro.serving.executors import process as process_module
from repro.testing.rungs import on_rung
from repro.uncertain.base import UncertainPoint
from repro.uncertain.disk_uniform import DiskUniformPoint

#: ``(rung, workers)``: the pool rungs at two and three workers, and
#: inline, which every host runs below two.
RUNG_WORKERS = [("process", 2), ("process", 3), ("thread", 2),
                ("thread", 3), ("inline", 1)]


def _disk_index(n, seed=3):
    extent = math.sqrt(n) * 2.0
    disks = random_disks(n, seed=seed, extent=extent, r_min=0.1, r_max=0.4)
    return PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks]), extent


def _queries(m, extent, seed=17):
    rng = random.Random(seed)
    return np.array([(rng.uniform(0, extent), rng.uniform(0, extent))
                     for _ in range(m)])


def _executor(index, rung, workers=2, **kw):
    """A :class:`ShardExecutor` over *index* started on *rung*."""
    with on_rung(rung, workers) as count:
        executor = ShardExecutor(index, workers=count, **kw)
    assert executor.mode == rung
    return executor


def _answers(impl, tasks):
    """Dispatch ``(method, chunk, params)`` tasks on *impl*; the chunk
    results in task order."""
    handles = [impl.dispatch((method, chunk, params, {"chunk": i}))
               for i, (method, chunk, params) in enumerate(tasks)]
    for handle in handles:
        assert handle.wait(60.0), "chunk did not answer within 60 s"
    return [handle.result()[0] for handle in handles]


class _OpaqueModel(DiskUniformPoint):
    """A user-defined subclass the array codec refuses to encode; worker
    replicas receive it pickled like any other model."""


# ----------------------------------------------------------------------
# The parity grid: 7 kinds x rungs x worker counts, all bitwise.
# ----------------------------------------------------------------------

class TestBackendParityGrid:
    @pytest.fixture(scope="class")
    def disk_case(self):
        index, extent = _disk_index(150)
        qs = _queries(500, extent)
        expected = {
            "delta": index.batch_delta(qs),
            "nonzero_nn": index.batch_nonzero_nn(qs),
            "quantify": index.batch_quantify(qs[:80], epsilon=0.25),
            "top_k": index.batch_top_k(qs[:80], k=2, epsilon=0.25),
            "threshold_nn": index.batch_threshold_nn(qs[:80], tau=0.4),
        }
        return index, qs, expected

    @pytest.fixture(scope="class")
    def discrete_case(self):
        pts = random_discrete_points(14, 2, seed=13, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(200, 12.0, seed=23)
        return index, qs, index.batch_quantify_exact(qs)

    @pytest.fixture(scope="class")
    def vpr_case(self):
        # Kept deliberately small: every process worker builds its
        # own Theta(N^4) diagram, so the instance size — not the query
        # count — is the grid's cost driver.
        pts = random_discrete_points(8, 2, seed=13, spread=2.0)
        index = PNNIndex(pts)
        qs = _queries(200, 9.0, seed=23)
        return index, qs, index.batch_quantify_vpr(qs)

    @pytest.mark.parametrize("rung,workers", RUNG_WORKERS)
    def test_generic_kinds_bitwise(self, disk_case, rung, workers):
        index, qs, expected = disk_case
        with _executor(index, rung, workers, chunk_size=64) as executor:
            assert np.array_equal(executor.run("delta", qs),
                                  expected["delta"])
            assert executor.run("nonzero_nn", qs) == expected["nonzero_nn"]
            assert executor.run("quantify", qs[:80],
                                {"epsilon": 0.25}) == expected["quantify"]
            assert executor.run("top_k", qs[:80],
                                {"k": 2, "epsilon": 0.25}) == \
                expected["top_k"]
            assert executor.run("threshold_nn", qs[:80],
                                {"tau": 0.4}) == expected["threshold_nn"]

    @pytest.mark.parametrize("rung,workers", RUNG_WORKERS)
    def test_quantify_exact_bitwise(self, discrete_case, rung, workers):
        index, qs, expected = discrete_case
        with _executor(index, rung, workers, chunk_size=32) as executor:
            assert executor.run("quantify_exact", qs) == expected

    @pytest.mark.parametrize("rung", LADDER)
    def test_quantify_vpr_bitwise(self, vpr_case, rung):
        index, qs, expected = vpr_case
        with _executor(index, rung, chunk_size=64) as executor:
            assert executor.run("quantify_vpr", qs) == expected

    @pytest.mark.parametrize("rung", LADDER)
    def test_chunking_invariance(self, disk_case, rung):
        """Any chunk size reassembles to the same bits."""
        index, qs, expected = disk_case
        for chunk in (17, 100, 10_000):
            with _executor(index, rung, chunk_size=chunk) as executor:
                assert np.array_equal(executor.run("delta", qs),
                                      expected["delta"])

    @pytest.mark.parametrize("rung", LADDER)
    def test_empty_batch(self, rung):
        index, _ = _disk_index(10)
        with _executor(index, rung) as executor:
            result = executor.run("delta", np.empty((0, 2)))
            assert isinstance(result, np.ndarray) and result.shape == (0,)
            assert executor.run("nonzero_nn", []) == []


# ----------------------------------------------------------------------
# Factory: selection policy and degradation chain.
# ----------------------------------------------------------------------

class TestBackendFactory:
    def test_single_worker_is_inline(self):
        index, _ = _disk_index(5)
        for workers in (0, 1):
            impl = create_backend(index, workers=workers)
            assert isinstance(impl, InlineBackend)
            impl.close()

    @pytest.mark.parametrize("rung", LADDER)
    def test_each_host_starts_its_rung(self, rung):
        """process where a pool starts, thread where none does, inline
        below two workers: the one decision, on each kind of host."""
        cls = {"process": ProcessBackend, "thread": ThreadBackend,
               "inline": InlineBackend}[rung]
        index, _ = _disk_index(5)
        with on_rung(rung) as workers:
            impl = create_backend(index, workers=workers)
        try:
            assert impl.mode == rung and isinstance(impl, cls)
            assert impl.workers == (1 if rung == "inline" else 2)
        finally:
            impl.close()

    def test_host_runs_process_and_serves_the_plane(self):
        """Two workers run on the process pool: an adopted V_Pr's plane
        reaches its workers, ``/healthz`` says so, and ``quantify_vpr``
        fans out bitwise-equal with zero per-worker diagram builds."""
        import json
        import urllib.request

        from repro.obs.metrics import ENGINE
        from repro.serving.http import HttpConfig, ServerThread

        index = PNNIndex(random_discrete_points(5, 2, seed=11, spread=2.0))
        index.use_vpr(index.build_vpr())
        qs = _queries(64, 9.0, seed=41)
        want = index.batch_quantify_vpr(qs)
        builds = ENGINE.get("vpr.builds")
        with index.serve(workers=2, cache_capacity=0,
                         shard_min_batch=8, shard_chunk=8) as service, \
                ServerThread(service, HttpConfig(port=0,
                                                 warm_kinds=())) as server:
            url = f"http://127.0.0.1:{server.port}/healthz"
            with urllib.request.urlopen(url, timeout=30) as resp:
                health = json.loads(resp.read())
            assert health["executor"]["mode"] == "process"
            assert health["executor"]["serves_plane"] is True
            assert "backend" not in health["executor"]
            assert health["vpr"]["plane_served"] is True
            assert service.batch("quantify_vpr", qs) == want
            assert service.method_stats(
                "quantify_vpr")["sharded_calls"] == 1
        assert ENGINE.get("vpr.builds") == builds

    def test_degrades_to_threads_without_process_pools(self, monkeypatch):
        """A host that cannot start a pool takes the next rung of the
        one ladder, threads."""
        def no_pools(*args, **kwargs):
            raise BackendUnavailable("no pools on this host")

        monkeypatch.setattr(process_module, "start_pool", no_pools)
        index, _ = _disk_index(5)
        impl = create_backend(index, workers=2)
        try:
            assert impl.mode == "thread"
        finally:
            impl.close()

    @pytest.mark.parametrize("surface", ["serve", "cli"])
    def test_backend_names_fail_closed(self, surface):
        """The executor rung is not a setting: ``backend`` takes only
        ``"auto"``, a rung name (or the retired ``shm``) raises instead
        of quietly running another rung, and the CLI flag is gone."""
        from repro.__main__ import main
        from repro.serving import ServiceConfig

        index, _ = _disk_index(5)
        attempts = {
            "serve": lambda name: index.serve(workers=2, backend=name),
            "cli": lambda name: main(["serve-http", "--backend", name,
                                      "--port", "0", "--n", "3"]),
        }
        for name in ("shm", "process", "thread", "inline"):
            if surface == "cli":
                with pytest.raises(SystemExit):
                    attempts[surface](name)
                continue
            with pytest.raises(ValueError, match=f"got {name!r}"):
                attempts[surface](name)
        assert ServiceConfig(backend="auto").backend == "auto"

    def test_retired_shm_fault_kind_fails_closed(self):
        from repro.serving.faults import FAULT_KINDS, FaultPlan

        with pytest.raises(ValueError) as info:
            FaultPlan.coerce("corrupt_shm_segment:chunk=0")
        assert str(FAULT_KINDS) in str(info.value)
        assert "shm" in str(info.value)


# ----------------------------------------------------------------------
# Thread backend specifics.
# ----------------------------------------------------------------------

class TestThreadBackend:
    def test_shares_the_caller_index(self):
        pts = random_discrete_points(10, 2, seed=7, spread=2.0)
        index = PNNIndex(pts)
        impl = ThreadBackend(index, workers=2)
        try:
            assert impl._replica.index is index
            qs = _queries(150, 8.0)
            parts = _answers(impl, [("quantify_vpr", qs[:50], {}),
                                    ("quantify_vpr", qs[50:], {})])
            # The warm-up built V_Pr once, on the shared index itself.
            assert index._vpr is not None
            flat = [row for part in parts for row in part]
            assert flat == index.batch_quantify_vpr(qs)
        finally:
            impl.close()

    def test_concurrent_clients_agree(self):
        """Two client threads driving one thread backend stay bitwise."""
        import threading

        index, extent = _disk_index(60)
        qs = _queries(400, extent)
        expected = index.batch_delta(qs)
        impl = ThreadBackend(index, workers=3)
        results, errors = {}, []

        def client(tid):
            try:
                tasks = [("delta", qs[s:s + 50], {})
                         for s in range(0, len(qs), 50)]
                parts = _answers(impl, tasks)
                results[tid] = np.concatenate(parts)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        impl.close()
        assert not errors
        for got in results.values():
            assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Lifecycle: close/teardown without leaks.
# ----------------------------------------------------------------------

class TestLifecycle:
    @pytest.mark.parametrize("rung", LADDER)
    def test_close_is_idempotent(self, rung):
        index, _ = _disk_index(10)
        with on_rung(rung) as workers:
            impl = create_backend(index, workers=workers)
        impl.close()
        impl.close()
        assert impl.closed

    def test_del_tears_down_worker_pool(self):
        import gc

        index, _ = _disk_index(10)
        impl = _process_backend(index)
        pool = impl._pool
        del impl
        gc.collect()
        assert pool._state != "RUN"  # pool closed, not leaked

    def test_executor_usable_after_backend_degradation(self):
        """An executor over models the codec cannot encode still answers
        correctly (pickled replicas need no codec)."""
        points = [_OpaqueModel((float(i), 0.0), 0.5) for i in range(4)]
        index = PNNIndex(points)
        qs = _queries(20, 4.0)
        with ShardExecutor(index, workers=2) as executor:
            assert np.array_equal(executor.run("delta", qs),
                                  index.batch_delta(qs))

    def test_interrupted_close_terminates_the_pool(self):
        """A pool whose graceful close() blows up (a KeyboardInterrupt
        landing in join()) is terminated rather than left running."""
        index, _ = _disk_index(10)
        impl = _process_backend(index)
        pool = impl._pool
        terminated = {"called": False}
        original_terminate = pool.terminate

        def recording_terminate():
            terminated["called"] = True
            return original_terminate()

        pool.terminate = recording_terminate
        pool.close = lambda: (_ for _ in ()).throw(
            RuntimeError("teardown exploded"))
        with pytest.raises(RuntimeError, match="teardown exploded"):
            impl.close()
        assert terminated["called"], "interrupted teardown must terminate"
        assert impl._pool is None
        impl.close()  # and a retried close stays a clean no-op


# ----------------------------------------------------------------------
# Worker entry point: a typed error, not an assert.
# ----------------------------------------------------------------------

class TestWorkerEntry:
    def test_run_chunk_without_replica_raises(self, monkeypatch):
        monkeypatch.setattr(process_module, "_REPLICA", None)
        with pytest.raises(RuntimeError, match="initializer did not run"):
            process_module._run_chunk(("delta", np.zeros((1, 2)), {}, {}))

    def test_run_chunk_without_replica_raises_under_optimize(self):
        """``python -O`` strips asserts; the guard must survive it."""
        import subprocess
        import sys

        code = ("import numpy as np\n"
                "from repro.serving.executors.process import _run_chunk\n"
                "try:\n"
                "    _run_chunk(('delta', np.zeros((1, 2)), {}, {}))\n"
                "except RuntimeError as exc:\n"
                "    print('RuntimeError:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == \
            "RuntimeError: worker initializer did not run"


# ----------------------------------------------------------------------
# Start-method fallback: fork -> forkserver -> spawn, preferred first.
# ----------------------------------------------------------------------

class _FakeContext:
    """A stand-in multiprocessing context whose ``Pool`` logs the start
    method it was asked for and optionally fails."""

    def __init__(self, method, log, failures):
        self.method, self.log, self.failures = method, log, failures

    def Pool(self, workers, initializer=None, initargs=()):
        self.log.append(self.method)
        error = self.failures.get(self.method)
        if error is not None:
            raise error
        return ("pool", self.method, workers)


class TestStartPool:
    def _patch(self, monkeypatch, available=("fork", "forkserver", "spawn"),
               failures=None):
        import multiprocessing

        log = []
        failures = failures or {}
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: list(available))
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda m: _FakeContext(m, log, failures))
        return log

    def test_fork_is_tried_first(self, monkeypatch):
        log = self._patch(monkeypatch)
        pool, method = process_module.start_pool(2, None, None, ())
        assert method == "fork" and pool == ("pool", "fork", 2)
        assert log == ["fork"]

    def test_preferred_method_goes_first(self, monkeypatch):
        """A rebuilt pool restarts with the method that worked before."""
        log = self._patch(monkeypatch)
        _, method = process_module.start_pool(2, "spawn", None, ())
        assert method == "spawn" and log == ["spawn"]

    def test_failing_preferred_falls_back_to_fork(self, monkeypatch):
        log = self._patch(monkeypatch,
                          failures={"spawn": OSError("no spawn")})
        _, method = process_module.start_pool(2, "spawn", None, ())
        assert method == "fork" and log == ["spawn", "fork"]

    @pytest.mark.parametrize("error", [OSError, ValueError, ImportError,
                                       RuntimeError])
    def test_start_failure_falls_through(self, monkeypatch, error):
        log = self._patch(monkeypatch, failures={"fork": error("boom")})
        _, method = process_module.start_pool(2, None, None, ())
        assert method == "forkserver" and log == ["fork", "forkserver"]

    def test_unavailable_methods_are_skipped(self, monkeypatch):
        log = self._patch(monkeypatch, available=("spawn",))
        _, method = process_module.start_pool(2, "fork", None, ())
        assert method == "spawn" and log == ["spawn"]

    def test_no_method_starts_raises_with_every_reason(self, monkeypatch):
        log = self._patch(monkeypatch, failures={
            "fork": OSError("f"), "forkserver": ValueError("fs"),
            "spawn": RuntimeError("s")})
        with pytest.raises(BackendUnavailable) as info:
            process_module.start_pool(2, None, None, ())
        assert log == ["fork", "forkserver", "spawn"]
        for reason in ("fork: f", "forkserver: fs", "spawn: s"):
            assert reason in str(info.value)

    def test_no_method_available_raises(self, monkeypatch):
        log = self._patch(monkeypatch, available=())
        with pytest.raises(BackendUnavailable, match="no multiprocessing"):
            process_module.start_pool(2, None, None, ())
        assert log == []


# ----------------------------------------------------------------------
# The process pool: plane shipping, death detection, rebuild, abort.
# ----------------------------------------------------------------------

def _process_backend(index, **kw):
    try:
        return ProcessBackend(index, workers=2, **kw)
    except BackendUnavailable:  # pragma: no cover — pool-less sandbox
        pytest.skip("process pools unavailable here")


def _wait_until(predicate, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


class TestProcessPool:
    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_every_start_method_ships_the_plane(self, monkeypatch, method):
        """The plane rides the initargs whatever the start method:
        inherited under fork, pickled once per worker otherwise."""
        import multiprocessing

        from repro.obs.metrics import ENGINE
        from repro.spatial.codec import plane_to_arrays

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable on this platform")
        index = PNNIndex(random_discrete_points(5, 2, seed=11, spread=2.0))
        index.use_vpr(index.build_vpr())
        qs = _queries(48, 9.0, seed=43)
        want = index.batch_quantify_vpr(qs)
        monkeypatch.setattr(ProcessBackend, "start_method", method)
        impl = _process_backend(index,
                                plane=plane_to_arrays(index.cached_vpr()))
        try:
            assert impl.start_method == method and impl.serves_plane
            builds = ENGINE.get("vpr.builds")
            parts = _answers(impl, [("quantify_vpr", qs[:24], {}),
                                    ("quantify_vpr", qs[24:], {})])
            assert parts[0] + parts[1] == want
            # Worker counters ship home: a chunk-time build would show.
            assert ENGINE.get("vpr.builds") == builds
        finally:
            impl.close()

    def test_opaque_models_ride_pickled_replicas(self):
        """Models the array codec refuses still reach process workers:
        the payload is pickled points, so every kind answers bitwise."""
        points = [_OpaqueModel((float(i), 0.5 * i), 0.5) for i in range(6)]
        index = PNNIndex(points)
        qs = _queries(40, 6.0)
        impl = _process_backend(index)
        try:
            assert np.array_equal(
                reassemble("delta", _answers(impl, [("delta", qs, {})])),
                index.batch_delta(qs))
            for method, params in (("nonzero_nn", {}),
                                   ("quantify", {"epsilon": 0.25}),
                                   ("top_k", {"k": 2, "epsilon": 0.25}),
                                   ("threshold_nn", {"tau": 0.4})):
                want = getattr(index, f"batch_{method}")(qs, **params)
                assert _answers(impl, [(method, qs, params)]) == [want]
        finally:
            impl.close()

    def test_killed_worker_is_reported_once(self):
        """A vanished worker pid reads as broken exactly once; the
        pool's own respawn is not a fresh failure."""
        import signal

        index, _ = _disk_index(10)
        impl = _process_backend(index)
        try:
            assert not impl.broken()
            victim = next(iter(impl._pids))
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(impl.broken)
            assert victim not in impl._pids
            assert _wait_until(lambda: len(impl._worker_pids()) == 2)
            assert not impl.broken()
        finally:
            impl.abort()

    def test_rebuild_starts_fresh_workers(self):
        index, _ = _disk_index(20)
        qs = _queries(60, 8.0)
        impl = _process_backend(index)
        try:
            old_pool, old_pids, method = impl._pool, impl._pids, \
                impl.start_method
            impl.rebuild()
            assert impl._pool is not old_pool
            assert old_pool._state != "RUN"
            assert impl._pids and not impl._pids & old_pids
            assert impl.start_method == method
            assert not impl.broken()
            assert np.array_equal(
                reassemble("delta", _answers(impl, [("delta", qs, {})])),
                index.batch_delta(qs))
        finally:
            impl.close()

    def test_abort_tears_down_without_joining(self):
        """abort() kills the workers outright instead of waiting on a
        chunk still in flight."""
        import time

        from repro.serving.faults import FaultPlan

        index, _ = _disk_index(10)
        impl = _process_backend(index)
        procs = list(impl._pool._pool)
        plan = FaultPlan.coerce("hang_chunk:delay=30").to_dict()
        impl.dispatch(("delta", np.zeros((1, 2)), {}, {"faults": plan}))
        t0 = time.perf_counter()
        impl.abort()
        assert time.perf_counter() - t0 < 10.0
        assert impl.closed and impl._pool is None
        assert all(p.exitcode is not None for p in procs)

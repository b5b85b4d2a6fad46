"""Fault tolerance for the serving stack: deadlines, retries, chaos.

Production serving dies in ways the happy path never exercises: a pool
worker is OOM-killed mid-chunk, a worker wedges on a kernel call and
never answers, a backend starts failing every request.  This module is
the policy half of the resilience layer threaded through
:class:`~repro.serving.shard.ShardExecutor` and the HTTP gateway:

* :class:`Deadline` — a monotonic-clock budget carried end to end
  (HTTP ``timeout_ms`` body field / ``X-Request-Deadline-Ms`` header ->
  :meth:`QueryService.submit`/``batch`` -> coalesced groups -> the
  executor's chunk-collection loop), so an expired request returns
  ``504 deadline_exceeded`` instead of waiting forever;
* :class:`RetryPolicy` — how chunk failures are retried: bounded
  re-dispatch rounds with exponential backoff, an optional per-chunk
  watchdog timeout that turns *hangs* into detectable failures, and the
  health-poll interval of the collection loop;
* :class:`CircuitBreaker` — consecutive-failure counting per backend;
  a tripped breaker degrades the executor down the runtime ladder
  ``process -> thread -> inline`` (the same order as the
  ``backend="auto"`` build-time policy);
* :func:`resilience_counters` — the fault/recovery counter families
  (``repro_retries_total``, ``repro_worker_failures_total``,
  ``repro_deadline_exceeded_total``, ...) a service registers in its
  metrics registry and snapshots in ``service.stats()``;
* :class:`FaultPlan` / :class:`FaultSpec` — **deterministic, seedable
  fault injection** for the chaos suite (``tests/test_faults.py``) and
  the ``chaos`` scenario of ``python -m repro smoke``.  Faults ride inside chunk-task metadata as plain
  picklable dicts, so the same plan perturbs every backend (process
  pools, threads, inline) with zero global state and zero cost when
  disabled.

Fault kinds
-----------
``crash_worker``
    The worker process answering the chunk dies hard (``os._exit``) —
    the closest injectable stand-in for an OOM kill.  In thread/inline
    backends (same pid as the caller, which must not die) it degrades
    to an injected exception.
``hang_chunk`` / ``slow_chunk``
    The chunk sleeps for ``delay`` seconds before answering — a hang is
    just a slow chunk longer than the watchdog.  Detection requires
    ``RetryPolicy.chunk_timeout`` or a request deadline.
``raise_in_compute``
    The chunk raises :class:`FaultInjected` instead of computing.

Every firing decision is a pure function of ``(plan seed, fault kind,
method, chunk ordinal, dispatch attempt)`` — no shared counters, no
wall clock — so a chaos run is exactly reproducible across processes
and backends, and the default ``attempts=(0,)`` guarantees retried
chunks succeed, keeping recovery **bitwise identical** to the no-fault
path.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..obs.metrics import Counter, Registry

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "RESILIENCE",
    "RetryPolicy",
    "WorkerFailure",
    "resilience_counters",
]

#: Injectable fault kinds (see the module docstring for semantics).
FAULT_KINDS = ("crash_worker", "hang_chunk", "slow_chunk",
               "raise_in_compute")

#: Environment fallback for :attr:`ServiceConfig.faults` — lets the CI
#: chaos jobs (and operators reproducing an incident) inject a plan into
#: any service without touching code.  Compact spec or JSON (see
#: :meth:`FaultPlan.coerce`).
FAULTS_ENV = "REPRO_FAULTS"


class DeadlineExceeded(TimeoutError):
    """The request's end-to-end deadline expired before its answer."""


class WorkerFailure(RuntimeError):
    """Chunk execution kept failing after every allowed dispatch attempt."""


class FaultInjected(RuntimeError):
    """An injected (``raise_in_compute`` / simulated-crash) chunk failure."""


# ----------------------------------------------------------------------
# Deadlines.
# ----------------------------------------------------------------------
class Deadline:
    """A monotonic-clock point in time a request must not outlive.

    Thread across call layers by reference; every enforcement point
    (queue admission, chunk collection, backoff sleeps, future waits)
    asks :meth:`remaining` and aborts with :class:`DeadlineExceeded`
    when the budget is gone.  ``None`` everywhere means "no deadline" —
    the pre-existing wait-forever behavior.
    """

    __slots__ = ("at", "timeout")

    def __init__(self, timeout: float) -> None:
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = float(timeout)
        self.at = time.monotonic() + self.timeout

    @classmethod
    def from_timeout_ms(cls, ms: float) -> "Deadline":
        return cls(float(ms) / 1e3)

    @classmethod
    def coerce(cls, value) -> Optional["Deadline"]:
        """``None`` | seconds | :class:`Deadline` -> an optional deadline."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls(float(value))

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0)."""
        return max(0.0, self.at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def raise_if_expired(self, where: str = "") -> None:
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.timeout * 1e3:.0f} ms exceeded"
                + (f" ({where})" if where else ""))

    @staticmethod
    def merge(a: Optional["Deadline"], b: Optional["Deadline"]
              ) -> Optional["Deadline"]:
        """The *laxest* of two optional deadlines (for coalesced groups:
        a batch may run as long as any member is still within budget —
        no member can tighten another member's budget)."""
        if a is None or b is None:
            return None
        return a if a.at >= b.at else b

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining() * 1e3:.1f}ms)"


# ----------------------------------------------------------------------
# Retry policy.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How the executor's dispatch loop handles chunk failures.

    Attributes
    ----------
    retries:
        Re-dispatch rounds allowed after the first attempt.  A chunk
        still failing after ``retries + 1`` total dispatch attempts
        raises :class:`WorkerFailure`.
    backoff / backoff_factor / backoff_max:
        Exponential backoff between re-dispatch rounds:
        ``min(backoff * factor**round, backoff_max)`` seconds, truncated
        by the request deadline.  Gives a crashed pool's respawn (or a
        rebuilt pool's initializers) time to settle.
    chunk_timeout:
        Per-chunk watchdog: a dispatched chunk not answered within this
        many seconds is declared *hung*, its pool is rebuilt, and it is
        re-dispatched — the only way a wedged worker (as opposed to a
        dead one) becomes a bounded failure.  ``None`` (default)
        disables the watchdog; a request deadline still bounds the wait.
    poll_interval:
        Health-poll cadence of the collection loop — the granularity of
        deadline enforcement and dead-worker detection.  A deadline
        expiry is noticed within one poll interval.
    """

    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    chunk_timeout: Optional[float] = None
    poll_interval: float = 0.02

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0 or self.backoff_max < 0:
            raise ValueError("backoff values must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, "
                             f"got {self.backoff_factor}")
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise ValueError(f"chunk_timeout must be positive (or None), "
                             f"got {self.chunk_timeout}")
        if not self.poll_interval > 0:
            raise ValueError(f"poll_interval must be positive, "
                             f"got {self.poll_interval}")

    def backoff_for(self, round_index: int) -> float:
        """Backoff seconds before re-dispatch round *round_index* (0-based)."""
        return min(self.backoff * (self.backoff_factor ** round_index),
                   self.backoff_max)


# ----------------------------------------------------------------------
# Circuit breaker.
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Consecutive-failure counter gating the runtime degradation ladder.

    Unlike a classic open/half-open HTTP breaker, tripping here does not
    reject traffic — it demotes the executor to the next backend down
    the ladder (which always ends at inline, the cannot-fail floor), so
    the service keeps answering, slower.  A success resets the count.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._lock = threading.Lock()
        self.consecutive_failures = 0
        self.trips = 0

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count one backend-level failure; ``True`` when this one trips
        the breaker (count reaches the threshold, then resets so the
        *next* backend gets a fresh budget)."""
        with self._lock:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.threshold:
                self.consecutive_failures = 0
                self.trips += 1
                return True
            return False

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"threshold": self.threshold,
                    "consecutive_failures": self.consecutive_failures,
                    "trips": self.trips}


# ----------------------------------------------------------------------
# Resilience counters.
# ----------------------------------------------------------------------
#: The fault/recovery counters: each one is exported as its own
#: ``repro_<name>_total`` family.
RESILIENCE = {
    "retries": "Chunk re-dispatch attempts after a worker failure, hang, "
               "or injected fault.",
    "worker_failures": "Chunk executions lost to worker death, fault, or "
                       "timeout.",
    "rebuilds": "Worker-pool rebuilds by the self-healing path.",
    "degradations": "Runtime backend downgrades along the "
                    "process->thread->inline ladder.",
    "breaker_trips": "Circuit-breaker trips (each one triggers a "
                     "degradation attempt).",
    "deadline_exceeded": "Requests abandoned at their end-to-end deadline "
                         "(504s).",
    "faults_injected": "Faults fired by the configured FaultPlan (chaos "
                       "testing only).",
}


def resilience_counters(registry: Registry) -> Dict[str, Counter]:
    """Register the :data:`RESILIENCE` families in *registry*; returns
    ``{name: Counter}`` for the service and its executor to share."""
    return {name: registry.counter(f"repro_{name}_total", help_text)
            for name, help_text in RESILIENCE.items()}


# ----------------------------------------------------------------------
# Fault injection.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault (see module docstring for kind semantics).

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    method:
        Restrict to one query kind (``None`` = every kind).
    chunk:
        Restrict to one chunk ordinal (``None`` = every chunk).
    attempts:
        Dispatch attempts (0-based) this fault fires on.  The default
        ``(0,)`` makes first dispatches fail and retries succeed — the
        recoverable-fault shape the parity tests drive.  An empty tuple
        means *every* attempt (a persistent fault, for degradation
        tests).
    p:
        Firing probability, decided by a seeded hash of the firing
        coordinates — deterministic, not sampled at runtime.
    delay:
        Sleep seconds for ``hang_chunk`` / ``slow_chunk``.
    """

    kind: str
    method: Optional[str] = None
    chunk: Optional[int] = None
    attempts: Tuple[int, ...] = (0,)
    p: float = 1.0
    delay: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        object.__setattr__(self, "attempts",
                           tuple(int(a) for a in self.attempts))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable set of faults to inject.

    Construction forms::

        FaultPlan([FaultSpec("crash_worker", chunk=0)])
        FaultPlan.coerce("crash_worker:chunk=0;slow_chunk:delay=0.1,p=0.5")
        FaultPlan.coerce('[{"kind": "hang_chunk", "delay": 2.0}]')  # JSON

    The compact string form is ``kind:key=value,key=value;kind:...`` —
    friendly to the :data:`FAULTS_ENV` environment variable and the
    ``serve-http --faults`` flag.  ``attempts`` in the compact form is ``+``-
    separated (``attempts=0+1``); ``attempts=any`` means every attempt.

    Plans cross process boundaries as plain dicts inside chunk-task
    metadata (:meth:`to_dict` / :meth:`from_dict`), so worker processes
    need no initializer changes and two services in one process can run
    different plans.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """``None``/plan/spec-list/dict/compact-or-JSON string -> plan.

        Returns ``None`` for ``None`` and empty specs (fault injection
        fully disabled — the hot path then carries zero metadata).
        """
        if value is None:
            return None
        if isinstance(value, FaultPlan):
            return value if value.specs else None
        if isinstance(value, FaultSpec):
            return cls(specs=(value,))
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, (list, tuple)):
            specs = tuple(s if isinstance(s, FaultSpec)
                          else FaultSpec(**s) for s in value)
            return cls(specs=specs) if specs else None
        if isinstance(value, str):
            text = value.strip()
            if not text:
                return None
            if text[0] in "[{":
                return cls.from_dict(json.loads(text)
                                     if text[0] == "{" else
                                     {"specs": json.loads(text)})
            return cls._parse_compact(text)
        raise TypeError(f"cannot build a FaultPlan from "
                        f"{type(value).__name__}")

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        import os

        env = os.environ if environ is None else environ
        return cls.coerce(env.get(FAULTS_ENV))

    @classmethod
    def _parse_compact(cls, text: str) -> "FaultPlan":
        specs = []
        seed = 0
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, rest = part.partition(":")
            kind = kind.strip()
            if kind == "seed":
                seed = int(rest)
                continue
            kwargs: Dict[str, object] = {}
            for pair in rest.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, _, raw = pair.partition("=")
                key = key.strip()
                raw = raw.strip()
                if key == "attempts":
                    kwargs[key] = (() if raw == "any" else
                                   tuple(int(a) for a in raw.split("+")))
                elif key == "chunk":
                    kwargs[key] = int(raw)
                elif key == "method":
                    kwargs[key] = raw
                elif key in ("p", "delay"):
                    kwargs[key] = float(raw)
                else:
                    raise ValueError(f"unknown fault parameter {key!r} "
                                     f"in {part!r}")
            specs.append(FaultSpec(kind, **kwargs))
        return cls(specs=tuple(specs), seed=seed)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain picklable/JSON-able form (ships inside task metadata)."""
        return {"seed": self.seed,
                "specs": [{"kind": s.kind, "method": s.method,
                           "chunk": s.chunk, "attempts": list(s.attempts),
                           "p": s.p, "delay": s.delay}
                          for s in self.specs]}

    @classmethod
    def from_dict(cls, doc: Dict) -> Optional["FaultPlan"]:
        specs = tuple(FaultSpec(kind=s["kind"],
                                method=s.get("method"),
                                chunk=s.get("chunk"),
                                attempts=tuple(s.get("attempts", (0,))),
                                p=s.get("p", 1.0),
                                delay=s.get("delay", 30.0))
                      for s in doc.get("specs", ()))
        if not specs:
            return None
        return cls(specs=specs, seed=int(doc.get("seed", 0)))

    # ------------------------------------------------------------------
    def fires(self, spec: FaultSpec, method: str, chunk: int,
              attempt: int) -> bool:
        """Whether *spec* fires at these coordinates — a pure function
        (seeded string-keyed RNG, no shared state), so parent and worker
        processes agree and chaos runs replay exactly."""
        if spec.method is not None and spec.method != method:
            return False
        if spec.chunk is not None and spec.chunk != chunk:
            return False
        if spec.attempts and attempt not in spec.attempts:
            return False
        if spec.p >= 1.0:
            return True
        # random.Random(str) seeds via sha512 of the string -> identical
        # across processes and interpreters regardless of PYTHONHASHSEED.
        key = f"{self.seed}|{spec.kind}|{method}|{chunk}|{attempt}"
        return random.Random(key).random() < spec.p

    def perturb(self, method: str, chunk: int, attempt: int,
                worker_pid: Optional[int] = None,
                parent_pid: Optional[int] = None) -> None:
        """Apply every firing worker-side fault at these coordinates.

        Called from :meth:`IndexReplica.run_task` before the chunk
        computes.  ``crash_worker`` kills the calling process hard —
        but only when it *is* a pool worker (``worker_pid`` differs from
        the dispatching ``parent_pid``); in thread/inline backends the
        caller's process must survive, so the crash degrades to a
        :class:`FaultInjected` exception (the closest observable).
        """
        import os

        for spec in self.specs:
            if not self.fires(spec, method, chunk, attempt):
                continue
            if spec.kind in ("hang_chunk", "slow_chunk"):
                time.sleep(spec.delay)
            elif spec.kind == "raise_in_compute":
                raise FaultInjected(
                    f"injected failure in {method} chunk {chunk} "
                    f"(attempt {attempt})")
            elif spec.kind == "crash_worker":
                pid = os.getpid() if worker_pid is None else worker_pid
                if parent_pid is not None and pid != parent_pid:
                    os._exit(1)  # hard kill: no atexit, no cleanup
                raise FaultInjected(
                    f"injected crash in {method} chunk {chunk} "
                    f"(attempt {attempt}; in-process worker, simulated)")

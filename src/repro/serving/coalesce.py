"""Request coalescing: micro-batching scalar queries into engine calls.

Service-shaped traffic arrives as many small independent requests, but the
batch engine's cost per query collapses when queries share one vectorized
pass (PR 1 measured 5-12x).  The :class:`MicroBatcher` bridges the two
shapes: callers :meth:`submit` single queries and immediately receive a
:class:`~concurrent.futures.Future`; pending requests accumulate per
``(method, params)`` group and are flushed as one batch when

* a group reaches ``max_batch`` requests (flushed inline by the
  submitting caller — no thread handoff on the hot path), or
* the oldest pending request in a group ages past ``flush_window``
  seconds (flushed by a background daemon thread), or
* the caller forces :meth:`flush` (used by synchronous drains, tests,
  and service shutdown).

Flushing never holds the coalescer lock while running the engine: groups
are detached under the lock, executed outside it, and each future is
resolved in submission order.  An engine exception fails every future of
its group — callers observe it exactly as if they had made the call.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, List, Tuple

from .faults import Deadline

__all__ = ["MicroBatcher"]


class _Group:
    """Pending requests of one ``(method, params)`` signature."""

    __slots__ = ("method", "params", "queries", "futures", "spans", "born",
                 "deadline")

    def __init__(self, method: str, params: Tuple) -> None:
        self.method = method
        self.params = params
        self.queries: List[Tuple[float, float]] = []
        self.futures: List[Future] = []
        # Trace spans of the *sampled* requests waiting in this group
        # (untraced submits add nothing here, so the common path stays
        # allocation-free).  When non-empty, the flush callback receives
        # them as a fourth argument so it can link every waiting request
        # to the one engine-execution span it coalesced into.
        self.spans: List[object] = []
        # The group's effective deadline: the *laxest* member deadline
        # (one request cannot tighten the budget of the others it
        # happens to share a batch with), or None once any member has
        # no deadline.  Set by the first submit, merged by the rest.
        self.deadline: object = None
        self.born = time.monotonic()


class MicroBatcher:
    """Coalesce scalar requests into batched ``flush_fn`` invocations.

    Parameters
    ----------
    flush_fn:
        ``flush_fn(method, queries, params) -> list`` — answers one
        coalesced batch, one result per query row, in order.
    max_batch:
        Group size that triggers an immediate (caller-inline) flush.
    flush_window:
        Seconds a pending request may wait before the background flusher
        releases its group.  ``0`` (or ``auto_flush=False``) disables the
        thread; callers must then flush explicitly or via ``max_batch``.
    """

    def __init__(self, flush_fn: Callable[[str, List[Tuple[float, float]],
                                           Tuple], List],
                 max_batch: int = 256,
                 flush_window: float = 0.005,
                 auto_flush: bool = True) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if flush_window < 0:
            raise ValueError("flush_window must be non-negative")
        self._flush_fn = flush_fn
        self.max_batch = max_batch
        self.flush_window = flush_window
        self._cv = threading.Condition()
        self._groups: Dict[Hashable, _Group] = {}
        self._closed = False
        # Groups detached from _groups but not yet resolved.  Every
        # detachment happens under _cv and increments this counter; the
        # finally-block of _run_group decrements it.  There is therefore
        # never a moment when a pending future is neither reachable via
        # _groups nor counted here — the invariant close() relies on to
        # guarantee drain-or-fail for every submitted request.
        self._inflight_groups = 0
        # Stats (read by QueryService.stats).
        self.submitted = 0
        self.flushes = 0
        self.full_flushes = 0
        self.timer_flushes = 0
        self.largest_batch = 0
        self._thread: threading.Thread = None  # type: ignore[assignment]
        if auto_flush and flush_window > 0:
            self._thread = threading.Thread(
                target=self._flusher_loop, name="repro-microbatcher",
                daemon=True)
            self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, method: str, q: Tuple[float, float],
               params: Tuple, span=None, deadline=None) -> Future:
        """Enqueue one scalar request; returns its future immediately.

        *span* (optional) is the request's live ``coalesce.wait`` trace
        span; sampled spans ride with the group and are handed to the
        flush callback (see :meth:`_run_group`) so the tracing layer can
        link each waiting request to the engine execution that answered
        it.  ``None`` — the untraced default — costs nothing.

        *deadline* (optional :class:`~repro.serving.faults.Deadline`)
        is merged into the group's effective deadline (the laxest of
        its members') and handed to the flush callback as a
        ``deadline=`` keyword — only when the whole group carries one,
        so deadline-free traffic keeps the original callback signature.
        """
        fut: Future = Future()
        full: _Group = None  # type: ignore[assignment]
        with self._cv:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            key = (method, params)
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(method, params)
                group.deadline = deadline
            else:
                group.deadline = Deadline.merge(group.deadline, deadline)
            group.queries.append((float(q[0]), float(q[1])))
            group.futures.append(fut)
            if span is not None:
                group.spans.append(span)
            self.submitted += 1
            if len(group.queries) >= self.max_batch:
                del self._groups[key]
                full = group
                self._inflight_groups += 1
                self.full_flushes += 1
            else:
                self._cv.notify()
        if full is not None:
            self._run_group(full)
        return fut

    def flush(self) -> int:
        """Flush every pending group now; returns requests released."""
        with self._cv:
            groups = list(self._groups.values())
            self._groups.clear()
            self._inflight_groups += len(groups)
        released = 0
        for group in groups:
            released += len(group.queries)
            self._run_group(group)
        return released

    @property
    def pending(self) -> int:
        with self._cv:
            return sum(len(g.queries) for g in self._groups.values())

    # ------------------------------------------------------------------
    def _run_group(self, group: _Group) -> None:
        # The caller detached *group* under _cv and incremented
        # _inflight_groups; whatever happens here — success, flush_fn
        # failure, even a non-Exception like KeyboardInterrupt — every
        # future is resolved and the in-flight count is released, so a
        # concurrent close() can never return while this group's callers
        # still block.
        try:
            # Counter updates take the lock: this runs concurrently on the
            # flusher thread and on submitters doing inline full flushes.
            with self._cv:
                self.flushes += 1
                self.largest_batch = max(self.largest_batch,
                                         len(group.queries))
            try:
                # Traced groups (any waiting span) call the 4-argument
                # form so the flush function can link waiters to the
                # engine-execution span; plain groups keep the original
                # 3-argument contract, so existing flush functions (and
                # the untraced hot path) are untouched.  A group-wide
                # deadline travels as a keyword, again only when set.
                kwargs = ({} if group.deadline is None
                          else {"deadline": group.deadline})
                if group.spans:
                    results = self._flush_fn(group.method, group.queries,
                                             group.params, group.spans,
                                             **kwargs)
                else:
                    results = self._flush_fn(group.method, group.queries,
                                             group.params, **kwargs)
                if len(results) != len(group.futures):
                    raise RuntimeError(
                        f"flush_fn returned {len(results)} results for "
                        f"{len(group.futures)} requests")
            except BaseException as exc:  # noqa: BLE001 — forwarded
                for fut in group.futures:
                    # A future the caller cancelled while pending must be
                    # skipped: resolving it raises InvalidStateError, which
                    # would kill the flusher thread and strand every other
                    # pending request.
                    if fut.set_running_or_notify_cancel():
                        fut.set_exception(exc)
                return
            for fut, res in zip(group.futures, results):
                if fut.set_running_or_notify_cancel():
                    fut.set_result(res)
        finally:
            with self._cv:
                self._inflight_groups -= 1
                self._cv.notify_all()

    def _flusher_loop(self) -> None:
        while True:
            with self._cv:
                if self._closed:
                    return
                now = time.monotonic()
                due = [key for key, g in self._groups.items()
                       if now - g.born >= self.flush_window]
                ripe = [self._groups.pop(key) for key in due]
                if not ripe:
                    oldest = min((g.born for g in self._groups.values()),
                                 default=None)
                    timeout = self.flush_window if oldest is None \
                        else max(0.0, oldest + self.flush_window - now)
                    self._cv.wait(timeout=timeout)
                    continue
                self._inflight_groups += len(ripe)
                self.timer_flushes += len(ripe)
            for group in ripe:
                self._run_group(group)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain-or-fail every pending request, then stop the flusher.

        When close() returns, every future handed out by an earlier
        :meth:`submit` is resolved — with a result, or with the engine's
        exception — regardless of which thread was about to flush it.
        The guarantee is atomic against concurrent submitters: a submit
        either lands before the closed flag (its group is drained below,
        or it is counted in-flight and waited for) or after it (the
        submit itself raises, so no orphan future exists).  That closes
        the race where a group detached by an inline full flush or the
        background flusher was still executing while close() returned —
        the service would then tear down the executor underneath the
        in-flight engine call, stranding its callers forever.

        Idempotent and safe to race: *every* closer (not just the first)
        drains the backlog, waits for the in-flight count to hit zero,
        and joins the flusher thread before returning.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self.flush()   # drains whatever is still queued (no-op if empty)
        with self._cv:
            # Wait out groups other threads detached (flusher timer
            # flushes, submitters' inline full flushes, a racing closer's
            # drain).  flush_fn invocations terminate (they are engine
            # calls), so this cannot hang.
            while self._inflight_groups > 0:
                self._cv.wait()
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

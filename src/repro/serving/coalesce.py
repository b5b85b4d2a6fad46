"""Request coalescing: group commit of scalar queries into engine calls.

Service-shaped traffic arrives as many small independent requests, but the
batch engine's cost per query collapses when queries share one vectorized
pass (PR 1 measured 5-12x).  The :class:`MicroBatcher` bridges the two
shapes by *group commit*, keyed by the request's ``(method, params)``:

* a submit whose key has no flush running becomes that key's leader: it
  runs its request as a one-row flush inline, on the submitting thread,
  so a lone request never waits for anything;
* submits arriving while a flush of their key runs queue behind it, in
  groups of at most ``max_batch`` rows, and wait in :meth:`submit`;
* when a flush ends, the next queued group is handed to one of its own
  waiting submitters, which runs it inline; the thread that ran the
  finished flush returns.

Batches therefore grow exactly as large as the traffic that arrived
during the previous flush — coalescing by idleness, with no clock and no
background thread — and every submit runs at most one flush, its own
group's, so no caller's reply waits on traffic that arrived after it.
Flushing never holds the coalescer lock while running the engine.
:meth:`MicroBatcher.submit` returns the request's row; an engine
exception is raised to every submitter of its group — callers observe it
exactly as if they had made the call.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Tuple

from .faults import Deadline

__all__ = ["MicroBatcher"]

# A group's life: queued behind a running flush, handed to its waiters
# (its turn, no runner yet), running, done.
_QUEUED, _READY, _RUNNING, _DONE = range(4)


class _Group:
    """Requests of one ``(method, params)`` signature flushed together."""

    __slots__ = ("method", "params", "queries", "results", "error", "spans",
                 "deadline", "state", "waiters")

    def __init__(self, method: str, params: Tuple, deadline,
                 state: int) -> None:
        self.method = method
        self.params = params
        self.queries: List[Tuple[float, float]] = []
        # Set once, before the group is done: one row per query, or the
        # exception every submitter of the group raises.
        self.results: Optional[List] = None
        self.error: Optional[BaseException] = None
        # Trace spans of the *sampled* requests waiting in this group
        # (untraced submits add nothing here, so the common path stays
        # allocation-free); the flush callback links every one of them
        # to the engine-execution span it coalesced into.
        self.spans: List[object] = []
        # The group's effective deadline: the *laxest* member deadline
        # (one request cannot tighten the budget of the others it
        # happens to share a batch with), or None once any member has
        # no deadline.  Set by the first submit, merged by the rest.
        self.deadline: object = deadline
        self.state = state
        # Submitters blocked in submit() on this group; one of them runs
        # it once it is handed over.
        self.waiters = 0

    def row(self, slot: int) -> object:
        """The answer of the group's *slot*-th request, or its error."""
        if self.error is not None:
            raise self.error
        return self.results[slot]  # type: ignore[index]


class MicroBatcher:
    """Coalesce scalar requests into batched ``flush_fn`` invocations.

    Parameters
    ----------
    flush_fn:
        ``flush_fn(method, queries, params, spans, deadline) -> list`` —
        answers one coalesced batch, one result per query row, in order.
        *spans* are the sampled requests' ``coalesce.wait`` spans (empty
        when none is traced) and *deadline* the group's merged
        :class:`~repro.serving.faults.Deadline` (``None`` when any
        member has none).
    max_batch:
        Most rows any one flush carries.
    """

    def __init__(self, flush_fn: Callable[[str, List[Tuple[float, float]],
                                           Tuple, List, Optional[Deadline]],
                                          List],
                 max_batch: int = 256) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self._flush_fn = flush_fn
        self.max_batch = max_batch
        self._cv = threading.Condition()
        # A key is present exactly while a group of it is running or
        # handed over; its value is the groups queued behind that one.
        # Every queued group has waiting submitters, one of which will
        # run it — the invariant close() relies on for drain-or-fail.
        self._queues: Dict[Hashable, Deque[_Group]] = {}
        self._closed = False
        # Stats (read by QueryService.stats).
        self.submitted = 0
        self.flushes = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------
    def submit(self, method: str, q: Tuple[float, float],
               params: Tuple, span=None, deadline=None) -> object:
        """Answer one scalar request through its key's group commit.

        Returns the request's row once its group is flushed, or raises
        the flush's exception: at once when the key was idle (the
        request ran inline as its own flush), otherwise after the
        running flush and the request's own group — run by this thread
        or by another submitter of the same group.

        *span* (optional) is the request's live ``coalesce.wait`` trace
        span; sampled spans ride with the group and are handed to the
        flush callback so the tracing layer can link each waiting
        request to the engine execution that answered it.  ``None`` —
        the untraced default — costs nothing.

        *deadline* (optional :class:`~repro.serving.faults.Deadline`)
        is merged into the group's effective deadline (the laxest of
        its members'), which the flush callback receives.
        """
        key = (method, params)
        with self._cv:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self.submitted += 1
            queue = self._queues.get(key)
            if queue is None:
                self._queues[key] = deque()
                group = _Group(method, params, deadline, _RUNNING)
            else:
                if not queue or len(queue[-1].queries) >= self.max_batch:
                    queue.append(_Group(method, params, deadline, _QUEUED))
                else:
                    queue[-1].deadline = Deadline.merge(queue[-1].deadline,
                                                        deadline)
                group = queue[-1]
            slot = len(group.queries)
            group.queries.append((float(q[0]), float(q[1])))
            if span is not None:
                group.spans.append(span)
            if group.state == _QUEUED:
                group.waiters += 1
                try:
                    while group.state in (_QUEUED, _RUNNING):
                        self._cv.wait()
                except BaseException:
                    group.waiters -= 1
                    if group.waiters == 0 and group.state in (_QUEUED,
                                                              _READY):
                        # Interrupted, and no one is left to run it.
                        self._abandon(key, group)
                    raise
                group.waiters -= 1
                if group.state == _DONE:
                    return group.row(slot)
                group.state = _RUNNING
            self.flushes += 1
            self.largest_batch = max(self.largest_batch, len(group.queries))
        self._run(key, group)
        return group.row(slot)

    @property
    def pending(self) -> int:
        """Rows queued behind a running flush."""
        with self._cv:
            return sum(len(g.queries) for queue in self._queues.values()
                       for g in queue)

    # ------------------------------------------------------------------
    def _run(self, key: Hashable, group: _Group) -> None:
        # Flush *group*, then hand the key to the next queued group's
        # waiters, or release it (which wakes close()) — whatever
        # escapes the flush.
        try:
            self._flush(group)
        finally:
            with self._cv:
                self._finish(key, group, RuntimeError(
                    "coalesced flush was interrupted"))

    def _finish(self, key: Hashable, group: _Group,
                exc: BaseException) -> None:
        # Under the lock: fail the group with *exc* unless the flush
        # answered it, mark it done and pass the key on.
        if group.results is None and group.error is None:
            group.error = exc
        group.state = _DONE
        queue = self._queues[key]
        if queue:
            queue.popleft().state = _READY
        else:
            del self._queues[key]
        self._cv.notify_all()

    def _abandon(self, key: Hashable, group: _Group) -> None:
        # Under the lock: every submitter of *group* was interrupted
        # while waiting, so no one reads its rows.  Drop a queued group;
        # fail a handed-over one and pass the key on.
        if group.state == _QUEUED:
            self._queues[key].remove(group)
            group.state = _DONE
        else:
            self._finish(key, group, RuntimeError(
                "every submitter of a coalesced group was interrupted"))

    def _flush(self, group: _Group) -> None:
        # A flush_fn failure — even a non-Exception like KeyboardInterrupt
        # — becomes the error of every submitter of the group.
        try:
            results = self._flush_fn(group.method, group.queries,
                                     group.params, group.spans,
                                     group.deadline)
            if len(results) != len(group.queries):
                raise RuntimeError(
                    f"flush_fn returned {len(results)} results for "
                    f"{len(group.queries)} requests")
        except BaseException as exc:  # noqa: BLE001 — forwarded
            group.error = exc
            return
        group.results = results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new submits, then wait until no flush is running.

        When close() returns, every request accepted by an earlier
        :meth:`submit` has been flushed and its row or error set — its
        submitter returns or raises without waiting.  A queued request
        exists only while its key is flushing, and each finished flush
        hands the key to the next queued group until the queue is
        empty, so waiting for every key to go idle drains every queued
        request.  The guarantee is atomic against concurrent
        submitters: a submit either lands before the closed flag (its
        group runs before the key goes idle) or after it (the submit
        itself raises).

        Idempotent and safe to race: every closer waits for the same
        condition.
        """
        with self._cv:
            self._closed = True
            while self._queues:
                self._cv.wait()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

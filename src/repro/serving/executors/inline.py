"""The inline (serial, in-process) executor backend.

The floor of the degradation ladder — sandboxes without process pools,
single-worker configurations — and also the *correctness oracle*:
it walks exactly the chunk list any parallel backend would, through the
same :class:`~repro.serving.executors.base.IndexReplica` code path, so
"inline answers == pool answers" is chunking invariance alone.
"""

from __future__ import annotations

from .base import ExecutorBackend, IndexReplica, PendingChunk, Task

__all__ = ["InlineBackend"]


class _LazyPending(PendingChunk):
    """A chunk that computes on first poll, in the caller's thread.

    Dispatch stays non-blocking and the collection loop checks the
    request deadline *between* chunks — serial execution can still abort
    a many-chunk batch part-way instead of only at the end.
    """

    __slots__ = ("_fn", "_task", "_done", "_result", "_exc")

    def __init__(self, fn, task: Task) -> None:
        self._fn = fn
        self._task = task
        self._done = False
        self._result = None
        self._exc = None

    def _run(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            self._result = self._fn(self._task)
        except Exception as exc:  # noqa: BLE001 — delivered via result()
            self._exc = exc
        finally:
            self._fn = self._task = None  # free the chunk array early

    def ready(self) -> bool:
        self._run()
        return True

    def result(self) -> object:
        self._run()
        if self._exc is not None:
            raise self._exc
        return self._result

    def wait(self, timeout: float) -> bool:
        return self.ready()


class InlineBackend(ExecutorBackend):
    """Serial execution over the served index, in the caller's thread."""

    mode = "inline"

    def __init__(self, index) -> None:
        super().__init__()
        self._replica = IndexReplica.of_index(index)

    def dispatch(self, task: Task) -> PendingChunk:
        return _LazyPending(self._replica.run_task, task)

"""Put executors on a chosen rung of the ladder the way a host does.

The rung is a fact about the host
(:func:`repro.serving.executors.create_backend`), so tests reach each
one by reproducing a host, not through a setting production lacks.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

from ..serving.executors import LADDER, BackendUnavailable, process

__all__ = ["on_rung", "rung_of"]


def _no_pools(*args, **kwargs):
    raise BackendUnavailable("no process pools on this host")


@contextlib.contextmanager
def on_rung(rung: str, workers: int = 2) -> Iterator[int]:
    """Yield the worker count that starts a new executor on *rung*:
    *workers* for ``process``; *workers* for ``thread``, with
    :func:`~repro.serving.executors.process.start_pool` raising
    :class:`BackendUnavailable` while the context is open; one for
    ``inline`` (a service then answers unsharded)."""
    if rung not in LADDER:
        raise ValueError(f"rung must be one of {LADDER}, got {rung!r}")
    if rung != "thread":
        yield 1 if rung == "inline" else workers
        return
    with mock.patch.object(process, "start_pool", _no_pools):
        yield workers


def rung_of(service) -> str:
    """The rung *service* answers on: its executor's live mode, or
    ``inline`` without one (``workers < 2``)."""
    return "inline" if service.executor is None else service.executor.mode

"""The JSON wire codec of the query API, and where reply bytes are made.

Method-native answers (floats, index lists, ``{i: pi_i}`` dicts, ranked
pairs, :class:`~repro.quantification.threshold.ThresholdResult`) map to
JSON-safe structures by :func:`encode_result` and back by
:func:`decode_result`.  JSON floats round-trip exactly (``repr`` emits
the shortest digits that reparse to the same float64), so a decoded
answer is bitwise-equal to the in-process one.

Byte-identity contract
----------------------
Every reply body equals ``json.dumps(doc, allow_nan=False)`` (UTF-8) of
its document, with ``json``'s default separators.  For a bulk reply the
document is ``{"kind": kind, "count": m, "results": [encode_result(kind,
row), ...]}``.  Nothing here changes a byte of that; it changes only
where and in what pieces the bytes are produced.

Where encoding runs
-------------------
A bulk answer is encoded where it is computed, by one function:
:func:`encode_batch` answers a run of query rows on an index and
returns its *fragment* — the encoded rows joined by ``", "``, the inside
of the ``results`` array.  Sharded batches are encoded by the executor
workers, after the engine call and inside the ``worker.compute`` span;
the parent joins the chunks' fragments in query order
(:func:`~repro.serving.executors.base.reassemble`).  Unsharded batches
are encoded in-process by the same function.  The HTTP gateway frames
the fragment (:func:`bulk_reply`) on its pool thread, so the event loop
does no per-row work for a bulk.

For the three ``quantify*`` kinds no answer dict is built:
:func:`encode_batch` takes the engine's dense ``(m, n)`` matrix (the
index's ``*_matrix`` methods, with the ``batch_*`` parameters) and the
kernel provider's ``emit_sparse_rows`` writes the ``{"i": pi_i}`` rows
straight from it.  The native provider does that in C with a
shortest round-trip float writer (Schubfach) that reproduces
``float.__repr__`` byte for byte; the NumPy provider is ``json.dumps``
of the dicts, the oracle ``tests/test_float_writer.py`` pins it to.
The other kinds and ``quantify`` by spiral search encode their answer
rows with :func:`encode_rows`.

Workers encode with ``NaN``/``Infinity`` allowed, and the parent checks
the joined fragment (:func:`check_finite`, called by
:meth:`~repro.serving.service.QueryService.batch_encoded`): a
non-finite answer is a deterministic fault of the answer, not of the
worker, so it must not enter the retry / circuit-breaker ladder.  It
fails the request closed as :class:`NonFiniteAnswer` (a 500 over HTTP).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable

from ..quantification.threshold import ThresholdResult
from ..spatial.kernels import get_provider

__all__ = ["NonFiniteAnswer", "bulk_reply", "check_finite", "decode_result",
           "dumps", "encode_batch", "encode_result", "encode_rows"]

#: Kinds whose engine rows are ``{int: float}`` dicts: ``json.dumps``
#: writes them exactly as :func:`encode_result`'s str-keyed copies.
_DICT_KINDS = ("quantify", "quantify_exact", "quantify_vpr")


class NonFiniteAnswer(ValueError):
    """An answer holds NaN or an infinity, which JSON cannot carry."""


def encode_result(kind: str, row: object) -> object:
    """One method-native answer row as a JSON-serializable structure."""
    if kind == "delta":
        return float(row)  # type: ignore[arg-type]
    if kind in _DICT_KINDS:
        return {str(int(i)): float(p)
                for i, p in row.items()}  # type: ignore[union-attr]
    if kind == "top_k":
        return [[int(i), float(p)] for i, p in row]  # type: ignore[union-attr]
    if kind == "threshold_nn":
        return {"tau": float(row.tau),  # type: ignore[union-attr]
                "epsilon": float(row.epsilon),
                "certain": [int(i) for i in row.certain],
                "candidates": [int(i) for i in row.candidates]}
    return [int(i) for i in row]  # nonzero_nn  # type: ignore[union-attr]


def decode_result(kind: str, obj: object) -> object:
    """Invert :func:`encode_result` back to the method-native shape.

    Client-side half of the codec (tests, smoke, benchmark clients):
    ``decode_result(kind, json_response) == service.query(kind, q)``
    exactly, floats included.
    """
    if kind == "delta":
        return float(obj)  # type: ignore[arg-type]
    if kind in _DICT_KINDS:
        return {int(i): float(p) for i, p in obj.items()}  # type: ignore
    if kind == "top_k":
        return [(int(i), float(p)) for i, p in obj]  # type: ignore
    if kind == "threshold_nn":
        return ThresholdResult(float(obj["tau"]),  # type: ignore[index]
                               float(obj["epsilon"]),
                               [int(i) for i in obj["certain"]],
                               [int(i) for i in obj["candidates"]])
    return [int(i) for i in obj]  # type: ignore[union-attr]


def encode_rows(kind: str, rows: Iterable) -> bytes:
    """The JSON fragment of a run of answer rows.

    The rows encoded as :func:`encode_result` would, joined by ``", "``
    and without the enclosing brackets; no rows give ``b""``.  The
    ``quantify*`` kinds' engine dicts (plain ``int`` keys, ``float``
    values) are dumped as they are, which writes the same bytes without
    building str-keyed copies.  ``NaN`` and infinities are written as
    ``json`` writes them; :func:`check_finite` rejects them.
    """
    if kind in _DICT_KINDS:
        doc = rows if isinstance(rows, list) else list(rows)
    else:
        doc = [encode_result(kind, row) for row in rows]
    return json.dumps(doc)[1:-1].encode("ascii")


def encode_batch(index, kind: str, queries, params: Dict) -> bytes:
    """The fragment of ``index.batch_<kind>(queries, **params)``.

    The ``quantify*`` kinds are written from the engine's matrix by the
    kernel provider, without building their dicts; the same bytes as
    :func:`encode_rows` of the dicts.
    """
    if kind in _DICT_KINDS:
        dense = getattr(index, f"{kind}_matrix")(queries, **params)
        if dense is not None:
            return get_provider().emit_sparse_rows(*dense)
    return encode_rows(kind, getattr(index, f"batch_{kind}")(queries,
                                                             **params))


def check_finite(kind: str, fragment: bytes) -> None:
    """Raise :class:`NonFiniteAnswer` if *fragment* holds NaN/Infinity.

    No other token of an encoded answer contains either word (keys are
    integers, the only strings are ``threshold_nn``'s field names), so
    two substring scans decide it.  The rare failing case re-parses the
    fragment to name the first offending row.
    """
    if b"NaN" not in fragment and b"Infinity" not in fragment:
        return
    rows = json.loads(b"[" + fragment + b"]")
    for j, row in enumerate(rows):
        bad = [v for v in _numbers(row) if not math.isfinite(v)]
        if bad:
            raise NonFiniteAnswer(
                f"{kind} answer of row {j} holds the non-finite value "
                f"{bad[0]!r}, which JSON cannot carry")
    raise NonFiniteAnswer(f"{kind} answer holds a non-finite value")


def _numbers(obj: object) -> Iterable[float]:
    """Every float inside a decoded JSON value."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)


def bulk_reply(kind: str, count: int, fragment: bytes) -> bytes:
    """The body of a bulk reply around a :func:`encode_rows` fragment.

    Byte-identical to ``dumps({"kind": kind, "count": count, "results":
    [...]})`` for a fragment that passed :func:`check_finite`.
    """
    return b'{"kind": %s, "count": %d, "results": [%s]}' % (
        json.dumps(kind).encode("ascii"), count, fragment)


def dumps(doc: object) -> bytes:
    """Strict JSON bytes: a non-finite float is a bug, never
    ``Infinity`` — it raises :class:`NonFiniteAnswer`."""
    try:
        return json.dumps(doc, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise NonFiniteAnswer(str(exc)) from None

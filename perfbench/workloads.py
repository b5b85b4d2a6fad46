"""The three traffic shapes: inputs from a seed, and the oracle check.

Each workload serves one fixed data set, ``random_discrete_points(...,
seed=DATASET_SEED)``; the run's ``--seed`` draws the traffic: the query
rows (a NumPy generator seeded with ``[seed, 1]``) and which single-point
requests repeat.  Drawing the data set from ``--seed`` as well made reply
sizes, and so throughput, differ by up to 17% between seeds on bulk_vpr
(16 points), which no run length averages away.  Request bodies are
serialized here, before any timing starts.  The oracle is the in-process
``PNNIndex.batch_*`` call on the same rows; replies are decoded with
``decode_result`` and compared exactly.
"""

import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.serving.http import decode_result

from client import request_bytes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int                   # uncertain points
    k: int                   # sites per point
    spread: float            # site scatter around each point's centre
    kinds: Tuple[str, ...]   # query kinds, alternating per request
    rows: int                # rows per request (0 = single-point bodies)
    connections: int
    vpr: bool = False        # build and adopt V_Pr before serving
    repeat_share: float = 0.0
    warmup: int = 3          # untimed requests per connection
    # Distinct timed requests per connection; a connection that gets
    # through them starts over.  Bulk requests (more rows than the
    # service's cache_batch_limit of 1024) bypass the result cache, so a
    # repeat costs the server what a fresh request does, while the
    # oracle answers each distinct request once.
    distinct: int = 16


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("bulk_exact",
             "4096-row quantify_exact bulks: sharded engine, kernels and "
             "the gateway codec of 1.9 MB replies",
             n=200, k=5, spread=1.0, kinds=("quantify_exact",), rows=4096,
             connections=1),
    # Singles must not start over within a run: repeats would hit the
    # cache and raise the hit share above a quarter.
    Workload("single_mix",
             "single-point nonzero_nn/quantify_exact on 2 connections, a "
             "quarter repeated: transport, cache and coalescer",
             n=200, k=5, spread=1.0, kinds=("nonzero_nn", "quantify_exact"),
             rows=0, connections=2, repeat_share=0.25, warmup=40,
             distinct=30000),
    Workload("bulk_vpr",
             "4096-row quantify_vpr bulks over the shared V_Pr plane: point "
             "location, plane set-up and memory",
             n=16, k=2, spread=2.0, kinds=("quantify_vpr",), rows=4096,
             connections=1, vpr=True),
)}

#: The data sets' generator seed (the ``serve-http`` default).
DATASET_SEED = 7

#: Query rows are uniform over the data extent (random_discrete_points'
#: default 10 x 10 square) unless the workload serves V_Pr, whose rows
#: are uniform over the diagram's window.
EXTENT = ((0.0, 0.0), (10.0, 10.0))


@dataclass
class Request:
    kind: str
    rows: np.ndarray         # (m, 2) float64; m = 1 for a single point
    single: bool
    raw: bytes               # the complete serialized HTTP request


class Inputs:
    """Everything a run sends, generated from one seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.points = random_discrete_points(workload.n, workload.k,
                                             seed=DATASET_SEED,
                                             spread=workload.spread)
        self.index = PNNIndex(self.points)
        self.vpr = None
        box = EXTENT
        if workload.vpr:
            self.vpr = self.index.build_vpr()
            self.index.use_vpr(self.vpr)
            box = self.vpr.box
        self.box = box
        rng = np.random.default_rng([seed, 1])
        per_conn = workload.warmup + workload.distinct
        self.streams: List[List[Request]] = []
        for c in range(workload.connections):
            if workload.rows:
                stream = [self._bulk(workload.kinds[i % len(workload.kinds)],
                                     rng) for i in range(per_conn)]
            else:
                stream = self._singles(c, per_conn, rng)
            self.streams.append(stream)

    def _uniform(self, rng: np.random.Generator, m: int) -> np.ndarray:
        (x0, y0), (x1, y1) = self.box
        return np.column_stack([rng.uniform(x0, x1, m),
                                rng.uniform(y0, y1, m)])

    def _bulk(self, kind: str, rng: np.random.Generator) -> Request:
        rows = self._uniform(rng, self.workload.rows)
        body = json.dumps({"queries": rows.tolist()}).encode()
        return Request(kind, rows, False,
                       request_bytes("POST", f"/v1/query/{kind}", body))

    def _singles(self, conn: int, count: int,
                 rng: np.random.Generator) -> List[Request]:
        """Alternating kinds; after the warm-up, each request repeats an
        earlier (kind, point) of this connection with probability
        ``repeat_share``, so those requests hit the result cache."""
        w = self.workload
        pick = random.Random(self.seed * 1009 + conn)
        fresh = self._uniform(rng, count)
        seen: Dict[str, List[int]] = {kind: [] for kind in w.kinds}
        out: List[Request] = []
        for i in range(count):
            kind = w.kinds[(i + conn) % len(w.kinds)]
            row = fresh[i]
            if (i >= w.warmup and seen[kind]
                    and pick.random() < w.repeat_share):
                row = out[pick.choice(seen[kind])].rows[0]
            elif i >= w.warmup:
                seen[kind].append(i)
            body = json.dumps({"q": row.tolist()}).encode()
            out.append(Request(kind, row.reshape(1, 2), True,
                               request_bytes("POST", f"/v1/query/{kind}",
                                             body)))
        return out


def oracle(index: PNNIndex, kind: str, rows: np.ndarray) -> List[object]:
    """The in-process answer rows for *kind* on *rows*."""
    return list(getattr(index, f"batch_{kind}")(rows))


def reply_rows(req: Request, body: bytes) -> List[object]:
    """The method-native rows of one reply, decoded with ``decode_result``."""
    doc = json.loads(body)
    if req.single:
        return [decode_result(req.kind, doc["result"])]
    return [decode_result(req.kind, obj) for obj in doc["results"]]


def check_replies(index: PNNIndex, requests: Sequence[Request],
                  replies: Sequence[tuple],
                  expected: Dict[int, List[object]] = None
                  ) -> List[bool]:
    """Compare every reply with the oracle; one verdict per reply.

    ``replies[i]`` answers ``requests[i]`` (a request sent twice appears
    twice).  A request fails on a non-200 status, a failed exchange, or
    any row that differs from the oracle.  *expected* maps ``id(request)``
    to precomputed oracle rows (the self-test passes corrupted ones);
    the others are computed here, singles in one batch per kind and bulk
    requests on two threads (the server is stopped by then).
    """
    expected = dict(expected or {})
    singles: Dict[str, List[Request]] = {}
    bulks: List[Request] = []
    for req in requests:
        if id(req) not in expected:
            expected[id(req)] = None
            if req.single:
                singles.setdefault(req.kind, []).append(req)
            else:
                bulks.append(req)
    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = pool.map(lambda r: oracle(index, r.kind, r.rows), bulks)
        for req, rows in zip(bulks, answers):
            expected[id(req)] = rows
    for kind, reqs in singles.items():
        rows = np.vstack([req.rows for req in reqs])
        for req, answer in zip(reqs, oracle(index, kind, rows)):
            expected[id(req)] = [answer]
    return [status == 200 and reply_rows(req, body) == expected[id(req)]
            for req, (status, _, body, _) in zip(requests, replies)]

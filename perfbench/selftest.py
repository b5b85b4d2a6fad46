"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Checks that a run prints every end-to-end (and, traced, every per-layer)
metric name with its unit, that the oracle check counts a deliberately
corrupted expected row and a non-200 reply as failed, and that two seeds
give different inputs under the same metric names.  Exits 0 when every
check passes.  Takes about half a minute.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
os.environ.setdefault("REPRO_KERNEL_CACHE",
                      os.path.join(ROOT, ".bench_build", "repro-kernels"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from repro.serving.http import encode_result  # noqa: E402

TOY = workloads.Workload("toy", "harness self-test", n=12, k=3, spread=1.0,
                         kinds=("quantify_exact", "nonzero_nn"), rows=64,
                         connections=1, distinct=2000)
failures = []


def check(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)
    print(("ok   " if cond else "FAIL ") + what, flush=True)


def run_toy(seed: int, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "toy", "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)])
    check(code == 0, f"toy run seed={seed} trace={trace} exits 0")
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    check(set(doc) == {"correct", "attempted", "failed", "metrics"},
          "the result line has exactly the four keys")
    check(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
          f"every toy reply matches the oracle ({doc['attempted']} sent)")
    return doc


def units(doc: dict) -> dict:
    return {name: m["unit"] for name, m in doc["metrics"].items()}


def reply(kind: str, rows: list, status: int = 200) -> tuple:
    body = json.dumps({"kind": kind, "count": len(rows),
                       "results": [encode_result(kind, r) for r in rows]})
    return status, {}, body.encode(), 0.0


def main() -> int:
    workloads.WORKLOADS["toy"] = TOY
    one = run_toy(1, 0)
    two = run_toy(2, 0)
    check(units(one) == dict(run.END_TO_END),
          "every end-to-end metric is printed with its unit")
    check(units(one) == units(two),
          "two seeds report the same metric names")
    traced = run_toy(1, 1)
    check(units(traced) == dict(PER_LAYER),
          "every per-layer metric is printed with its unit")

    a = workloads.Inputs(TOY, 1)
    b = workloads.Inputs(TOY, 2)
    check(all(x.raw != y.raw for x, y in zip(a.streams[0], b.streams[0])),
          "two seeds give different request bodies")
    check(workloads.Inputs(TOY, 1).streams[0][0].raw
          == a.streams[0][0].raw, "one seed gives the same inputs again")

    reqs = a.streams[0][:4]
    expected = {id(r): workloads.oracle(a.index, r.kind, r.rows)
                for r in reqs}
    replies = [reply(r.kind, expected[id(r)]) for r in reqs]
    check(workloads.check_replies(a.index, reqs, replies) == [True] * 4,
          "correct replies pass the oracle check")
    corrupt = dict(expected)
    row = dict(corrupt[id(reqs[0])][0])
    key = next(iter(row))
    row[key] = row[key] * (1 + 1e-12)
    corrupt[id(reqs[0])] = [row] + corrupt[id(reqs[0])][1:]
    check(workloads.check_replies(a.index, reqs, replies, corrupt)
          == [False, True, True, True],
          "a corrupted expected row is counted as failed")
    replies[1] = reply(reqs[1].kind, expected[id(reqs[1])], status=500)
    check(workloads.check_replies(a.index, reqs, replies)
          == [True, False, True, True],
          "a non-200 reply is counted as failed")

    print(f"selftest: {len(failures)} check(s) failed" if failures
          else "selftest: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

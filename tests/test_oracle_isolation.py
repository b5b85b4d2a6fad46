"""The bitwise oracles in ``repro.testing.oracles`` are test-only.

Production serves ``V_Pr`` through one build path and one locator; the
scalar builds and the slab table exist only to pin them in tests and
benchmarks.  A fresh interpreter that imports the serving stack and
answers a ``quantify_vpr`` query must never load the oracle module.
"""

import os
import subprocess
import sys

import repro

_SCRIPT = """
import sys
import repro.serving.http
import repro.core.index
import repro.voronoi.vpr
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points

index = PNNIndex(random_discrete_points(4, 2, seed=3, spread=2.0))
with index.serve(workers=0) as service:
    answer = service.query("quantify_vpr", (0.5, 0.5))
assert abs(sum(answer.values()) - 1.0) < 1e-9, answer
print("loaded" if "repro.testing.oracles" in sys.modules else "clean")
"""


def test_production_never_imports_oracles():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "clean"

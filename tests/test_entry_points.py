"""The repository's runnable surfaces stay runnable.

The example scripts and ``python -m repro serve-demo`` call the public
serving API, and the CI workflow names test node ids; each is checked
here so that an API change or a renamed test class fails tier-1 instead
of a later manual run or CI job.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _run(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("args", [
    pytest.param([str(ROOT / "examples" / "quickstart.py")],
                 id="quickstart"),
    pytest.param(["-m", "repro", "serve-demo"], id="serve-demo"),
])
def test_exits_0(args, tmp_path):
    out = _run(args, tmp_path)
    assert out.returncode == 0, out.stderr[-2000:]


def _defined(path: Path, names):
    """Whether ``Class`` (or ``Class::method``, or a module-level
    function) *names* is defined in the test module at *path*."""
    scope = ast.parse(path.read_text()).body
    for name in names:
        node = next((n for n in scope if isinstance(
            n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        scope = getattr(node, "body", [])
    return True


def test_ci_names_existing_tests():
    ids = set(re.findall(r"tests/[\w/]+\.py(?:::\w+)*", CI.read_text()))
    assert ids, "the CI workflow names no test paths"
    missing = []
    for node_id in sorted(ids):
        path, *names = node_id.split("::")
        if not (ROOT / path).is_file() or not _defined(ROOT / path, names):
            missing.append(node_id)
    assert not missing, f"CI names tests that do not exist: {missing}"

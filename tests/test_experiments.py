"""Smoke tests for the experiment registry (quick mode)."""

import os
import subprocess
import sys

import pytest

from repro.experiments import REGISTRY, ExperimentResult
from repro.experiments.runners import run_e01, run_e02, run_e14


class TestRegistry:
    def test_all_experiments_registered(self):
        # The registry holds the paper artifacts only; the systems
        # measurements live in tests/test_speed_bars.py and perfbench/.
        assert set(REGISTRY) == {f"E{i}" for i in range(1, 19)}

    def test_runner_returns_result(self):
        res = run_e14(quick=True)
        assert isinstance(res, ExperimentResult)
        assert res.exp_id == "E14"
        assert res.rows
        assert res.conclusion

    def test_e1_passes_quick(self):
        res = run_e01(quick=True)
        assert res.passed
        assert any(row["r"] == 10.0 for row in res.rows)

    def test_e2_breakpoint_bound_quick(self):
        res = run_e02(quick=True)
        assert res.passed
        for row in res.rows:
            assert row["max breakpoints"] <= row["bound 2n"]

    def test_e14_matches_paper(self):
        res = run_e14(quick=True)
        assert res.passed


class TestBruteForceAgreement:
    def test_disagreement_fails_the_run_under_optimize(self):
        """``python -O`` strips asserts; E8/E9 must still report a
        brute-force disagreement as a failed run, not a PASS."""
        code = (
            "from repro.core.index import PNNIndex\n"
            "from repro.experiments.runners import run_e08, run_e09\n"
            "brute = PNNIndex.nonzero_nn_bruteforce\n"
            "PNNIndex.nonzero_nn_bruteforce = "
            "lambda self, q: brute(self, q) + [-1]\n"
            "for run in (run_e08, run_e09):\n"
            "    res = run(quick=True)\n"
            "    print(res.exp_id, res.passed,\n"
            "          'brute force agrees on every query: False'\n"
            "          in res.conclusion)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:2] == ["E8 False True",
                                              "E9 False True"]


class TestMarkdownRendering:
    def test_render(self):
        from repro.experiments.__main__ import render_markdown

        res = run_e14(quick=True)
        text = render_markdown([res])
        assert "E14" in text
        assert "| quantity |" in text
        assert "PASS" in text

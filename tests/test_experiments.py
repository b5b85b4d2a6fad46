"""Smoke tests for the experiment registry (quick mode)."""

import pytest

from repro.experiments import REGISTRY, ExperimentResult
from repro.experiments.runners import run_e01, run_e02, run_e14


class TestRegistry:
    def test_all_experiments_registered(self):
        # The registry holds the paper artifacts only; the systems
        # experiments E19-E28 are gated by their benchmarks/bench_eNN
        # files.
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


class TestMarkdownRendering:
    def test_render(self):
        from repro.experiments.__main__ import render_markdown

        res = run_e14(quick=True)
        text = render_markdown([res])
        assert "E14" in text
        assert "| quantity |" in text
        assert "PASS" in text

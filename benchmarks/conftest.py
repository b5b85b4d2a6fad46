"""Shared fixtures for the benchmark harness.

Each ``bench_eXX_*.py`` file (E1–E18) regenerates one paper artifact
(its runner's docstring in ``repro.experiments.runners`` names it): the
pytest-benchmark fixture times the experiment's hot kernel, and plain
assertions re-check the paper's shape claim on the same data.
"""

import random

import pytest


@pytest.fixture
def rng():
    """A deterministically seeded RNG for query generation."""
    return random.Random(12345)

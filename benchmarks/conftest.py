"""Shared state for the benchmark harness.

The paper's evaluation (``repro.bench.run_experiments``) runs once per
session; ``test_claims.py`` checks every ``repro.bench.CLAIMS`` row against it.

Set ``AIOPSLAB_BENCH_SEED`` to change the evaluation seed.
"""

import os

import pytest

from repro.bench import BenchmarkRunner, run_experiments

BENCH_SEED = int(os.environ.get("AIOPSLAB_BENCH_SEED", "0"))


@pytest.fixture(scope="session")
def report():
    # results are bit-identical at any concurrency
    # (tests/bench/test_concurrency.py), so use a second core if there is one
    runner = BenchmarkRunner(max_steps=20, seed=BENCH_SEED,
                             concurrency=min(2, os.cpu_count() or 1))
    return run_experiments(runner)

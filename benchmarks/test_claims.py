"""Every claim this reproduction makes about the paper's evaluation,
asserted at ``AIOPSLAB_BENCH_SEED`` (run with ``-s`` to see every table),
and the evaluation's results pinned by ``tests/bench/golden_report.json``.

The golden holds, at seed 0: per (agent, pid) the outcome, step count,
virtual duration, input and output token counts, task-detail fields and a
sha256 of the action sequence; the three baseline rows without their wall
time; the Figure-5 series; the Noop outcome.

Re-record (only when a result change is intended and reviewed)::

    PYTHONPATH=src python benchmarks/test_claims.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.bench import CLAIMS, render_markdown

GOLDEN = Path(__file__).parents[1] / "tests" / "bench" / "golden_report.json"
GOLDEN_SEED = 0
_DETAIL_KEYS = ("success@1", "success@3", "subtasks_correct")


def capture(report) -> dict:
    """The golden's view of one evaluation run (JSON-shaped)."""
    cases: dict = {}
    for c in report.results.cases:
        actions = json.dumps([s.action_raw for s in c.session.steps])
        cases.setdefault(c.agent, {})[c.pid] = {
            "success": c.success, "steps": c.steps,
            "duration_s": c.duration_s,
            "input_tokens": c.input_tokens, "output_tokens": c.output_tokens,
            **{key: c.details.get(key) for key in _DETAIL_KEYS},
            "actions_sha256": hashlib.sha256(actions.encode()).hexdigest(),
        }
    return {
        "cases": cases,
        "baselines": {name: {k: v for k, v in row.items() if k != "time_s"}
                      for name, row in report.baselines.items()},
        "figure5": {agent: {str(k): v for k, v in points.items()}
                    for agent, points in report.figure5.items()},
        "noop_outcome": report.noop_outcome,
    }


def test_report_renders(report):
    print()
    print(render_markdown(report))


def test_report_matches_golden(report):
    if report.seed != GOLDEN_SEED:
        pytest.skip(f"the golden is recorded at seed {GOLDEN_SEED}, "
                    f"this run is at AIOPSLAB_BENCH_SEED={report.seed}")
    golden = json.loads(GOLDEN.read_text())
    measured = capture(report)
    for part in golden:
        assert measured[part] == golden[part], part


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, report):
    assert claim.check(report), f"{claim.section}: {claim.statement}"


if __name__ == "__main__":
    from repro.bench import BenchmarkRunner, run_experiments

    runner = BenchmarkRunner(max_steps=20, seed=GOLDEN_SEED,
                             concurrency=min(2, os.cpu_count() or 1))
    GOLDEN.write_text(
        json.dumps(capture(run_experiments(runner)), indent=1) + "\n")
    print(f"recorded {GOLDEN}")

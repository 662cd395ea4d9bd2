"""Every claim this reproduction makes about the paper's evaluation,
asserted at ``AIOPSLAB_BENCH_SEED`` (run with ``-s`` to see every table)."""

import pytest

from repro.bench import CLAIMS, render_markdown


def test_report_renders(report):
    print()
    print(render_markdown(report))


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, report):
    assert claim.check(report), f"{claim.section}: {claim.statement}"

"""Table 2: the fault library and per-fault problem counts."""

from repro.bench import render_table, table2_problem_pool
from repro.problems import pool_summary


def test_table2_problem_pool():
    headers, rows = table2_problem_pool()
    print()
    print(render_table(headers, rows, "Table 2 — fault/problem inventory"))

    # paper: 48 benchmark problems; Table-2 counts sum to 50 with the two
    # Noop probes (see DESIGN.md accounting)
    assert sum(r[-1] for r in rows) == 50
    summary = pool_summary()
    assert summary["total"] == 48
    by_name = {r[1]: r[-1] for r in rows}
    assert by_name["TargetPortMisconfig"] == 12
    assert by_name["RevokeAuth"] == 8
    assert by_name["UserUnregistered"] == 8
    assert by_name["NetworkLoss"] == 2
    assert by_name["Noop"] == 2

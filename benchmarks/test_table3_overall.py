"""Table 3: overall agent performance over the 48-problem benchmark.

Shape targets (paper): FLASH and ReAct above GPT-4, GPT-3.5 far last;
GPT-3.5 takes the most steps; ReAct produces the most output tokens.
Absolute numbers differ (simulated substrate) — orderings must hold.
"""

from repro.bench import render_table, table3_overall


def test_table3_overall(suite_results):
    headers, rows = table3_overall(suite_results)
    print()
    print(render_table(headers, rows, "Table 3 — overall agent performance"))

    acc = {r[0]: float(r[5].rstrip("%")) for r in rows}
    steps = {r[0]: float(r[3]) for r in rows}
    time_s = {r[0]: float(r[2]) for r in rows}

    # who wins: the two structured agents beat the naive GPT-4 shell agent
    assert max(acc["FLASH"], acc["REACT"]) > acc["GPT-4-W-SHELL"]
    # GPT-3.5 collapses (paper: 15% vs 49-59% for the rest)
    assert acc["GPT-3.5-W-SHELL"] < acc["GPT-4-W-SHELL"] / 1.5
    # GPT-3.5 wanders: most steps of all agents
    assert steps["GPT-3.5-W-SHELL"] == max(steps.values())
    # FLASH's hindsight pass makes it the slowest per problem
    assert time_s["FLASH"] == max(time_s.values())

"""Figure 5: agent accuracy vs. the maximum allowed steps K.

Shape targets (paper): accuracy is non-trivially higher at K=20 than K=3
for the structured agents, and GPT-3.5 plateaus — more steps do not help
it beyond a small K."""

from benchmarks.conftest import REDUCED_PIDS
from repro.bench import figure5_step_limit, render_series


def test_figure5_step_limit(runner):
    series = figure5_step_limit(
        runner, limits=(3, 5, 10, 15, 20), pids=REDUCED_PIDS)
    print()
    print(render_series("Figure 5 — accuracy vs step limit K", series))

    for agent in ("flash", "react"):
        assert series[agent][20] >= series[agent][3], \
            f"{agent} should improve with more steps"
    # best accuracy at K=20 belongs to a structured agent (paper: FLASH)
    best = max(series, key=lambda a: series[a][20])
    assert best in ("flash", "react")
    # GPT-3.5 plateaus: the K=20 gain over K=10 is marginal
    gpt35 = series["gpt-3.5-w-shell"]
    assert gpt35[20] - gpt35[10] <= 0.25

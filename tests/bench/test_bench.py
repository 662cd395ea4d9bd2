import pytest

from repro.bench import (
    BenchmarkRunner,
    figure6_api_usage,
    figure7_action_distribution,
    render_series,
    render_table,
    table2_problem_pool,
    table3_overall,
    table4_by_task,
    table5_commands,
)

# One problem per task, shared across the module (runs take ~1s each).
PIDS = [
    "revoke_auth_hotel_res-detection-1",
    "misconfig_k8s_social_net-localization-1",
    "scale_pod_zero_social_net-analysis-1",
    "scale_pod_zero_social_net-mitigation-1",
]


@pytest.fixture(scope="module")
def results():
    runner = BenchmarkRunner(max_steps=20, seed=2)
    return runner.run_suite(agents=("gpt-4-w-shell", "flash"), pids=PIDS)


class TestRunner:
    def test_case_count(self, results):
        assert len(results.cases) == 8

    def test_case_fields_populated(self, results):
        case = results.cases[0]
        assert case.steps > 0 and case.duration_s > 0
        assert case.session is not None

    def test_accuracy_bounds(self, results):
        for agent in ("gpt-4-w-shell", "flash"):
            assert 0.0 <= results.accuracy(agent) <= 1.0

    def test_select_filters(self, results):
        det = results.select(task="detection")
        assert det and all(c.task_type == "detection" for c in det)
        assert len(results.select("flash", "detection")) == 1

    def test_case_seeds_reproducible(self):
        r = BenchmarkRunner(max_steps=10, seed=9)
        c1 = r.run_case("gpt-4-w-shell", PIDS[0])
        c2 = r.run_case("gpt-4-w-shell", PIDS[0])
        assert c1.success == c2.success and c1.steps == c2.steps
        assert c1.input_tokens == c2.input_tokens


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["A", "BB"], [["1", "2"], ["33", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4 and "-+-" in lines[1]

    def test_table2_counts_sum_to_50(self):
        headers, rows = table2_problem_pool()
        assert headers[-1] == "# Problems"
        assert sum(r[-1] for r in rows) == 50  # 48 benchmark + 2 noop

    def test_table2_row_for_target_port(self):
        _, rows = table2_problem_pool()
        row = next(r for r in rows if r[1] == "TargetPortMisconfig")
        assert row[-1] == 12

    def test_table3_rows_per_agent(self, results):
        headers, rows = table3_overall(results,
                                       agents=("gpt-4-w-shell", "flash"))
        assert len(rows) == 2
        assert headers == ["Agent", "LoC", "Time (s)", "# Steps", "Tokens",
                           "Acc."]

    def test_table4_has_all_tasks(self, results):
        tables = table4_by_task(results, agents=("gpt-4-w-shell", "flash"))
        assert set(tables) == {"detection", "localization", "analysis",
                               "mitigation"}

    def test_table4_localization_has_both_accuracies(self, results):
        headers, _ = table4_by_task(results)["localization"]
        assert "Acc.@3" in headers and "Acc.@1" in headers

    def test_table4_includes_baseline_rows(self, results):
        baselines = {"mksmc": {"task": "detection", "accuracy": 0.15,
                               "time_s": 1.0}}
        _, rows = table4_by_task(results, agents=("flash",),
                                 baselines=baselines)["detection"]
        assert any(r[0] == "MKSMC" for r in rows)

    def test_table5_counts_mongo_commands(self, results):
        headers, rows = table5_commands(results, agents=("flash",))
        assert "mongo" in headers


class TestFigures:
    def test_figure6_percentages_sum_to_100(self, results):
        usage = figure6_api_usage(results, agents=("gpt-4-w-shell", "flash"))
        for agent, buckets in usage.items():
            assert sum(buckets.values()) == pytest.approx(100.0, abs=0.1)

    def test_figure7_splits_by_outcome(self, results):
        dist = figure7_action_distribution(results)
        assert set(dist) == {"successful", "failure"}

    def test_render_series_contains_points(self):
        text = render_series("Fig", {"agent": {3: 0.5, 5: 0.6}})
        assert "3:0.500" in text

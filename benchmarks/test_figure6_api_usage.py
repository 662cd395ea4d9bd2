"""Figure 6: percentage of actions per API category for ReAct and FLASH.

Shape targets (paper): get_logs is the most-used telemetry API for both
agents; FLASH never calls get_traces; K8S (shell) actions dominate."""

from repro.bench import figure6_api_usage, render_series


def test_figure6_api_usage(suite_results):
    usage = figure6_api_usage(suite_results)
    print()
    print(render_series("Figure 6 — % of actions by API", usage))

    for agent in ("react", "flash"):
        telemetry = {k: usage[agent][k]
                     for k in ("get_logs", "get_metrics", "get_traces")}
        assert max(telemetry, key=telemetry.get) == "get_logs"
    assert usage["flash"]["get_traces"] == 0.0
    assert usage["react"]["K8S"] > 20.0

"""Figure 7: action distribution split by successful vs failed cases.

Shape targets (paper): successful cases submit more (they finish) and use
get_metrics/get_traces sparingly; failed cases show relatively more
telemetry-grazing."""

from repro.bench import figure7_action_distribution, render_series


def test_figure7_action_distribution(suite_results):
    dist = figure7_action_distribution(suite_results)
    print()
    print(render_series("Figure 7 — action distribution by outcome", dist))

    ok, fail = dist["successful"], dist["failure"]
    # successful cases end in submission at a higher rate
    assert ok["Submit"] > fail["Submit"]
    # failure cases consume relatively more raw metric/trace data (§3.6.2)
    assert (fail["get_metrics"] + fail["get_traces"]) >= \
        (ok["get_metrics"] + ok["get_traces"])

import json

from repro.telemetry.traces import Span, TraceStore, render_traces


def make_trace(store, services_status, start=0.0):
    """Add a linear trace (first service is root, each child nested) and
    return its view."""
    store.add(start, tuple(
        tuple(Span(i - 1, svc, "op", 1.0, status))
        for i, (svc, status) in enumerate(services_status)))
    return store.query()[-1]


def rendered(trace):
    """The trace as ``traces.json`` holds it, parsed back."""
    [d] = json.loads(render_traces([trace]))["data"]
    return d


class TestTrace:
    def test_root_is_first_span(self):
        store = TraceStore()
        trace = make_trace(store, [("a", "OK"), ("b", "OK")])
        assert trace.root.service == "a"

    def test_has_error(self):
        store = TraceStore()
        trace = make_trace(store, [("a", "OK"), ("b", "ERROR")])
        assert trace.has_error

    def test_to_dict_roundtrip_fields(self):
        store = TraceStore()
        trace = make_trace(store, [("a", "OK")])
        d = rendered(trace)
        assert d["traceID"] == trace.trace_id
        assert d["spans"][0]["serviceName"] == "a"

    def test_ids_derive_from_number_and_position(self):
        store = TraceStore()
        make_trace(store, [("a", "OK")])
        trace = make_trace(store, [("a", "OK"), ("b", "OK"), ("c", "OK")],
                           start=7.5)
        d = rendered(trace)
        assert d["traceID"] == "trace-00000003"
        assert [s["spanID"] for s in d["spans"]] == \
            ["span-00000004", "span-00000005", "span-00000006"]
        assert [s["parentSpanID"] for s in d["spans"]] == \
            [None, "span-00000004", "span-00000005"]
        assert {s["startTime"] for s in d["spans"]} == {7.5}


class TestTraceStore:
    def test_ids_unique(self):
        store = TraceStore()
        ids = {make_trace(store, [("a", "OK")] * (i % 3 + 1)).trace_id
               for i in range(100)}
        assert len(ids) == 100

    def test_counter_advances_by_one_plus_spans(self):
        store = TraceStore()
        first = make_trace(store, [("a", "OK"), ("b", "OK")])
        second = make_trace(store, [("a", "OK")])
        assert (first.number, second.number) == (1, 4)

    def test_query_time_window(self):
        store = TraceStore()
        make_trace(store, [("a", "OK")], start=1.0)
        make_trace(store, [("a", "OK")], start=10.0)
        assert len(store.query(since=5.0)) == 1
        assert len(store.query(until=5.0)) == 1

    def test_error_rate_by_service(self):
        store = TraceStore()
        make_trace(store, [("a", "OK"), ("b", "ERROR")])
        make_trace(store, [("a", "OK"), ("b", "OK")])
        rates = store.error_rate_by_service()
        assert rates["b"] == 0.5 and rates["a"] == 0.0

    def test_capacity_eviction(self):
        store = TraceStore(capacity=50)
        for _ in range(80):
            make_trace(store, [("a", "OK")])
        assert len(store) <= 80

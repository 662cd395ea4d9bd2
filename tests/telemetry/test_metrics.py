import numpy as np
from hypothesis import given, settings, strategies as st

from repro.telemetry.metrics import MetricSeries, MetricStore


class TestMetricSeries:
    def test_add_and_latest(self):
        s = MetricSeries("svc", "cpu")
        s.add(1.0, 10.0)
        s.add(2.0, 20.0)
        assert s.latest() == 20.0

    def test_latest_empty(self):
        assert MetricSeries("s", "m").latest() is None

    def test_window_bounds_inclusive(self):
        s = MetricSeries("svc", "cpu")
        for t in range(5):
            s.add(float(t), float(t))
        t, v = s.window(since=1.0, until=3.0)
        assert list(t) == [1.0, 2.0, 3.0]

    def test_window_no_bounds(self):
        s = MetricSeries("svc", "cpu")
        s.add(0.0, 1.0)
        t, v = s.window()
        assert len(t) == 1


class TestMetricStore:
    def test_record_creates_series(self):
        store = MetricStore()
        store.record(0.0, "a", "cpu_usage", 5.0)
        assert store.series("a", "cpu_usage") is not None

    def test_services_sorted(self):
        store = MetricStore()
        store.record(0.0, "b", "cpu_usage", 1.0)
        store.record(0.0, "a", "cpu_usage", 1.0)
        assert store.services() == ["a", "b"]

    def test_snapshot_latest(self):
        store = MetricStore()
        store.record(0.0, "a", "cpu_usage", 1.0)
        store.record(1.0, "a", "cpu_usage", 9.0)
        assert store.snapshot_latest("cpu_usage") == {"a": 9.0}

    def test_matrix_shape(self):
        store = MetricStore()
        for t in range(4):
            for svc in ("a", "b", "c"):
                store.record(float(t), svc, "cpu_usage", 1.0)
        times, m = store.matrix(["a", "b", "c"], "cpu_usage")
        assert m.shape == (4, 3)

    def test_matrix_missing_service_zero_filled(self):
        store = MetricStore()
        for t in range(3):
            store.record(float(t), "a", "cpu_usage", 2.0)
        times, m = store.matrix(["a", "ghost"], "cpu_usage")
        assert m.shape[1] == 2
        assert np.all(m[:, 1] == 0)

    def test_matrix_empty(self):
        store = MetricStore()
        times, m = store.matrix(["a"], "cpu_usage")
        assert m.shape[0] == 0

    def test_matrix_ragged_truncates(self):
        store = MetricStore()
        for t in range(5):
            store.record(float(t), "a", "cpu_usage", 1.0)
        for t in range(3):
            store.record(float(t), "b", "cpu_usage", 1.0)
        _, m = store.matrix(["a", "b"], "cpu_usage")
        assert m.shape == (3, 2)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=40))
    @settings(max_examples=30)
    def test_window_round_trip(self, values):
        s = MetricSeries("svc", "m")
        for i, v in enumerate(values):
            s.add(float(i), v)
        t, v = s.window(since=0.0, until=float(len(values)))
        assert len(t) == len(values)

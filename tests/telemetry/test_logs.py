import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.logs import LogStore, render_line


def emit(store, t=0.0, ns="ns", svc="svc", pod="pod-1", level="INFO", msg="m"):
    return store.emit(t, ns, svc, pod, level, msg)


class TestLogStore:
    def test_emit_and_len(self):
        store = LogStore()
        emit(store)
        assert len(store) == 1

    def test_query_by_service(self):
        store = LogStore()
        emit(store, svc="a")
        emit(store, svc="b")
        assert len(store.rows(service="a")) == 1

    def test_query_by_level(self):
        store = LogStore()
        emit(store, level="ERROR")
        emit(store, level="INFO")
        assert [r[4] for r in store.rows(level="ERROR")] == ["ERROR"]

    def test_query_time_window(self):
        store = LogStore()
        for t in (1.0, 5.0, 9.0):
            emit(store, t=t)
        assert len(store.rows(since=2.0, until=8.0)) == 1

    def test_query_conjunction(self):
        store = LogStore()
        emit(store, svc="a", level="ERROR", t=5.0)
        emit(store, svc="a", level="INFO", t=5.0)
        emit(store, svc="b", level="ERROR", t=5.0)
        assert len(store.rows(service="a", level="ERROR")) == 1

    def test_tail_returns_last_n(self):
        store = LogStore()
        for i in range(10):
            emit(store, pod="p", msg=f"line{i}")
        text = store.tail("ns", n=3, pod="p")
        assert "line9" in text and "line6" not in text

    def test_tail_service(self):
        store = LogStore()
        emit(store, svc="geo", msg="hello-geo")
        emit(store, svc="rate", msg="hello-rate")
        text = store.tail("ns", service="geo")
        assert "hello-geo" in text and "hello-rate" not in text

    def test_error_counts(self):
        store = LogStore()
        emit(store, svc="a", level="ERROR")
        emit(store, svc="a", level="ERROR")
        emit(store, svc="b", level="ERROR")
        assert store.error_counts("ns") == {"a": 2, "b": 1}

    def test_error_counts_respects_since(self):
        store = LogStore()
        emit(store, svc="a", level="ERROR", t=1.0)
        emit(store, svc="a", level="ERROR", t=10.0)
        assert store.error_counts("ns", since=5.0) == {"a": 1}

    def test_services_seen(self):
        store = LogStore()
        emit(store, svc="x")
        emit(store, svc="y")
        assert store.services_seen("ns") == {"x", "y"}

    @pytest.mark.parametrize("capacity", [1, 5, 100])
    def test_capacity_eviction_keeps_recent(self, capacity):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            LogStore(capacity=0)
        store = LogStore(capacity=capacity)
        for i in range(capacity + 50):
            emit(store, msg=f"m{i}")
        assert len(store) <= capacity
        assert any(f"m{capacity + 49}" in r[5] for r in store.rows())

    def test_render_contains_level_and_service(self):
        text = render_line((65.0, "ns", "geo", "geo-1", "ERROR", "boom"))
        assert "ERROR" in text and "[geo]" in text and "boom" in text

    @given(st.lists(st.sampled_from(["INFO", "WARN", "ERROR"]), max_size=30))
    @settings(max_examples=30)
    def test_query_partitions_by_level(self, levels):
        store = LogStore()
        for i, level in enumerate(levels):
            emit(store, t=float(i), level=level)
        total = sum(len(store.rows(level=l)) for l in ("INFO", "WARN", "ERROR"))
        assert total == len(levels)

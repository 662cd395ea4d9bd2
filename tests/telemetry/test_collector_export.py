import json
from pathlib import Path

from repro.core.aci import TaskActions
from repro.problems import get_problem
from repro.telemetry import TelemetryExporter


class TestCollectorScrape:
    def test_scrape_records_standard_metrics(self, hotel):
        hotel.driver.run_events(10)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        store = hotel.collector.metrics
        for metric in store.STANDARD_METRICS:
            assert store.series("frontend", metric) is not None, metric

    def test_scraped_cpu_zero_for_scaled_down_service(self, hotel):
        hotel.cluster.scale_deployment(hotel.app.namespace, "geo", 0)
        hotel.driver.run_events(10)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        assert hotel.collector.metrics.snapshot_latest("cpu_usage")["geo"] == 0.0

    def test_request_window_resets_between_scrapes(self, hotel):
        hotel.driver.run_events(10)  # driver scrapes internally at t=5 and t=10
        r1 = hotel.collector.metrics.snapshot_latest("request_rate")["frontend"]
        # no load between scrapes → zero rate
        hotel.clock.advance(5)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        r2 = hotel.collector.metrics.snapshot_latest("request_rate")["frontend"]
        assert r1 > 0 and r2 == 0.0

    def test_error_rate_reflects_faults(self, hotel):
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        hotel.driver.run_events(10)  # internal scrape captures the error window
        assert hotel.collector.metrics.snapshot_latest("error_rate")["geo"] > 0

    def test_baselines_stable_across_scrapes(self, hotel):
        hotel.driver.run_events(6)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        c1 = hotel.collector.metrics.snapshot_latest("cpu_usage")["frontend"]
        hotel.driver.run_events(6)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        c2 = hotel.collector.metrics.snapshot_latest("cpu_usage")["frontend"]
        # same baseline with small noise, not wildly different
        assert abs(c1 - c2) / c1 < 0.5


class TestExporter:
    def test_export_logs_writes_per_service_files(self, hotel, tmp_path):
        hotel.driver.run_events(20)
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        out = exporter.export_logs(hotel.app.namespace)
        exporter.materialize()
        assert (out / "all.jsonl").exists()
        # structured lines parse back
        lines = (out / "all.jsonl").read_text().splitlines()
        assert lines and all("service" in json.loads(l) for l in lines[:5])

    def test_export_metrics_csv(self, hotel, tmp_path):
        hotel.driver.run_events(10)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        out = exporter.export_metrics()
        exporter.materialize()
        csv_text = (out / "cpu_usage.csv").read_text()
        assert csv_text.startswith("time,service,value")
        assert "frontend" in csv_text

    def test_export_traces_json(self, hotel, tmp_path):
        hotel.driver.run_events(5)
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        out = exporter.export_traces()
        exporter.materialize()
        payload = json.loads((out / "traces.json").read_text())
        assert payload["data"], "expected at least one trace"
        assert "spans" in payload["data"][0]

    def test_export_traces_window(self, hotel, tmp_path):
        hotel.driver.run_events(10)
        everything = hotel.collector.traces.rows()
        cutoff = everything[len(everything) // 2][1]
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        out = exporter.export_traces(since=cutoff)
        exporter.materialize()
        data = json.loads((out / "traces.json").read_text())["data"]
        assert [d["traceID"] for d in data] == \
            [f"trace-{number:08x}" for number, start, _ in everything
             if start >= cutoff]
        assert 0 < len(data) < len(everything)

    def test_export_traces_empty_window(self, hotel, tmp_path):
        hotel.driver.run_events(5)
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        out = exporter.export_traces(since=hotel.clock.now + 1.0)
        exporter.materialize()
        assert (out / "traces.json").read_text() == '{\n "data": []\n}'

    def test_get_logs_directory_holds_only_that_namespace(self):
        env = get_problem("noisy_neighbor_multi_hotel_res-detection-1") \
            .prepare(4)
        aci = TaskActions(env)
        aci.get_logs("test-hotel-reservation", "all")
        [path] = aci.get_logs("test-social-network", "all").artifacts
        env.exporter.materialize()
        written = {p.stem for p in Path(path).glob("*.log")}
        seen = env.collector.logs.services_seen("test-social-network")
        env.close()
        assert written == seen

    def test_export_all_creates_tree(self, hotel, tmp_path):
        hotel.driver.run_events(5)
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        root = exporter.export_all(hotel.app.namespace)
        assert (root / "logs").is_dir()
        assert (root / "metrics").is_dir()
        assert (root / "traces").is_dir()

    def test_export_since_filters(self, hotel, tmp_path):
        hotel.driver.run_events(10)
        records = hotel.collector.logs.rows(namespace=hotel.app.namespace)
        times = sorted({r[0] for r in records})
        cutoff = times[len(times) // 2]
        assert any(r[0] < cutoff for r in records)
        assert any(r[0] >= cutoff for r in records)
        exporter = TelemetryExporter(hotel.collector, tmp_path)
        out = exporter.export_logs(hotel.app.namespace, since=cutoff)
        exporter.materialize()
        assert (out / "all.jsonl").exists()
        lines = (out / "all.jsonl").read_text().splitlines()
        assert [json.loads(l) for l in lines] == \
            [dict(zip(("time", "namespace", "service", "pod", "level",
                       "message"), r)) for r in records if r[0] >= cutoff]

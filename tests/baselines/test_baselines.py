import numpy as np
import pytest

from repro.baselines import MKSMC, PDiagnose, RMLAD
from repro.faults import ApplicationFaultInjector, SymptomaticFaultInjector


class TestMKSMC:
    def test_fit_then_detect_healthy(self, hotel):
        hotel.driver.run_events(60)
        services = sorted(hotel.app.services)
        det = MKSMC(seed=0)
        det.fit(hotel.collector.metrics, services, until=40.0)
        verdict = det.detect(hotel.collector.metrics, services, since=40.0)
        assert verdict.threshold > 0
        assert verdict.score >= 0

    def test_detects_gross_resource_anomaly(self, hotel):
        hotel.driver.run_events(60)
        # fabricate a massive CPU spike on one service (overwrite the last
        # scrape so series stay aligned across services)
        hotel.collector.metrics.series("geo", "cpu_usage").values[-1] = 100000.0
        services = sorted(hotel.app.services)
        det = MKSMC(seed=0)
        det.fit(hotel.collector.metrics, services, until=40.0)
        verdict = det.detect(hotel.collector.metrics, services, since=40.0)
        assert verdict.anomalous

    def test_fit_without_data_rejected(self, hotel):
        det = MKSMC(seed=0)
        with pytest.raises(ValueError):
            det.fit(hotel.collector.metrics, sorted(hotel.app.services))

    def test_score_before_fit_rejected(self, hotel):
        with pytest.raises(RuntimeError):
            MKSMC().score(hotel.collector.metrics, ["a"])

    def test_monte_carlo_threshold_reproducible(self, hotel):
        hotel.driver.run_events(30)
        services = sorted(hotel.app.services)
        t1 = MKSMC(seed=5).fit(hotel.collector.metrics, services).threshold
        t2 = MKSMC(seed=5).fit(hotel.collector.metrics, services).threshold
        assert t1 == t2


class TestMksmcGrading:
    """The runner grades the detector's verdict against the problem's own
    answer — scenario problems carry no fault spec, only ``ans``."""

    @pytest.mark.parametrize("pid,accuracy", [
        # ans == "yes" with spec None: "not anomalous" is a miss
        ("delayed_revoke_auth_hotel_res-detection-1", 0.0),
        # ans == "no": "not anomalous" is correct
        ("hpa_spike_recovery_hotel_res-detection-1", 1.0),
    ])
    def test_quiet_verdict_is_graded_by_problem_answer(
            self, monkeypatch, pid, accuracy):
        from repro.baselines import runner
        from repro.baselines.mksmc import MksmcResult

        class NeverAnomalous:
            def __init__(self, seed=0):
                pass

            def fit(self, *args, **kwargs):
                return self

            def detect(self, *args, **kwargs):
                return MksmcResult(anomalous=False, score=0.0,
                                   threshold=1.0)

        monkeypatch.setattr(runner, "MKSMC", NeverAnomalous)
        row = runner.run_baselines(["mksmc"], pids=[pid])["mksmc"]
        assert row["accuracy"] == accuracy


class TestRMLAD:
    def test_ranks_log_anomalous_service_high(self, hotel):
        hotel.driver.run_events(30)
        ApplicationFaultInjector(hotel.app)._inject(["mongodb-geo"],
                                                    "revoke_auth")
        hotel.driver.run_events(30)
        result = RMLAD().localize(hotel.collector, hotel.app.namespace,
                                  healthy_until=30.0, observe_until=60.0)
        # geo's error logging explodes: it must rank in the top few
        assert "geo" in result.top(5)

    def test_scores_nonnegative(self, hotel):
        hotel.driver.run_events(40)
        result = RMLAD().localize(hotel.collector, hotel.app.namespace,
                                  healthy_until=20.0, observe_until=40.0)
        assert all(v >= 0 for v in result.scores.values())

    def test_top_k_bounds(self, hotel):
        hotel.driver.run_events(20)
        result = RMLAD().localize(hotel.collector, hotel.app.namespace,
                                  healthy_until=10.0, observe_until=20.0)
        assert len(result.top(3)) <= 3


class TestPDiagnose:
    def test_votes_combine_modalities(self, hotel):
        hotel.driver.run_events(30)
        SymptomaticFaultInjector(hotel.app)._inject(["recommendation"],
                                                    "pod_failure")
        hotel.driver.run_events(30)
        result = PDiagnose().localize(hotel.collector, hotel.app.namespace,
                                      since=30.0)
        assert result.ranking, "expected a non-empty ranking"
        assert all(v >= 0 for v in result.votes.values())

    def test_weights_respected(self, hotel):
        hotel.driver.run_events(30)
        zero = PDiagnose(kpi_weight=0, log_weight=0, trace_weight=0)
        result = zero.localize(hotel.collector, hotel.app.namespace, since=15.0)
        assert all(v == 0 for v in result.votes.values())

    def test_equal_votes_rank_by_service_name(self, hotel):
        """Ties never fall back to set order, which varies with the
        process's string hash seed."""
        hotel.driver.run_events(30)
        zero = PDiagnose(kpi_weight=0, log_weight=0, trace_weight=0)
        result = zero.localize(hotel.collector, hotel.app.namespace, since=15.0)
        assert len(result.ranking) > 1
        assert result.ranking == sorted(result.ranking)


class TestBaselineSuiteRunner:
    def test_reduced_suite_row_shape(self):
        from repro.baselines import run_baselines
        from repro.problems import list_problems
        row = run_baselines(["mksmc"],
                            pids=list_problems("detection")[:2],
                            seed=1)["mksmc"]
        assert row["task"] == "detection"
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["time_s"] >= 0

    def test_localizer_suite_reports_top1_and_top3(self):
        from repro.baselines import run_baselines
        from repro.problems import list_problems
        row = run_baselines(["pdiagnose"],
                            pids=list_problems("localization")[:2],
                            seed=1)["pdiagnose"]
        assert row["accuracy@1"] <= row["accuracy@3"]

    def test_suite_leaves_no_export_dir_behind(self):
        import os
        import tempfile
        from repro.baselines import run_baselines
        from repro.problems import list_problems

        def export_dirs():
            return {name for name in os.listdir(tempfile.gettempdir())
                    if name.startswith("aiopslab-")}

        before = export_dirs()
        run_baselines(["mksmc", "pdiagnose", "rmlad"],
                      pids=[list_problems("detection")[0],
                            list_problems("localization")[0]])
        assert export_dirs() - before == set()

    def test_unknown_baseline(self):
        from repro.baselines import run_baselines
        with pytest.raises(KeyError):
            run_baselines(["nope"])

    def test_prepares_each_incident_once(self, monkeypatch):
        """Two incidents' detection and localization pids: two preparations,
        and every row equals the one its algorithm makes alone."""
        from repro.baselines import run_baselines
        from repro.core.problem import Problem

        pids = ["auth_missing_hotel_res-detection-1",
                "auth_missing_hotel_res-localization-1",
                "revoke_auth_hotel_res-detection-1",
                "revoke_auth_hotel_res-localization-1"]
        names = ("mksmc", "pdiagnose", "rmlad")
        prepare = Problem.prepare
        calls = []

        def counting(self, seed=0):
            calls.append(self.pid)
            return prepare(self, seed)

        monkeypatch.setattr(Problem, "prepare", counting)
        grouped = run_baselines(names, pids=pids)
        assert len(calls) == 2
        alone = {name: run_baselines([name], pids=pids)[name]
                 for name in names}
        assert len(calls) == 2 + 2 * len(names)

        def untimed(row):
            return {k: v for k, v in row.items() if k != "time_s"}

        assert {n: untimed(r) for n, r in grouped.items()} == \
            {n: untimed(r) for n, r in alone.items()}


def test_baselines_only_read_the_telemetry():
    """Each algorithm, called as the suite runner calls it, leaves the
    collector byte-identical — so one prepared environment can serve
    every baseline."""
    import hashlib
    import pickle

    from repro.problems import get_problem

    env = get_problem("revoke_auth_hotel_res-localization-1").prepare(0)
    env.advance(30.0)
    collector, ns, inject_t = env.collector, env.namespace, env.armed.armed_at
    services = sorted(env.app.services)

    def digest():
        return hashlib.sha256(pickle.dumps(collector)).hexdigest()

    runs = {
        "mksmc": lambda: MKSMC(seed=0).fit(
            collector.metrics, services, until=inject_t).detect(
            collector.metrics, services, since=inject_t),
        "pdiagnose": lambda: PDiagnose().localize(collector, ns,
                                                  since=inject_t),
        "rmlad": lambda: RMLAD().localize(collector, ns,
                                          healthy_until=inject_t,
                                          observe_until=env.clock.now),
    }
    before = digest()
    for name, run in runs.items():
        run()
        assert digest() == before, name
    env.close()

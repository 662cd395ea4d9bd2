import functools
import math
from bisect import bisect_right
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.core import CloudEnvironment
from repro.apps import HotelReservation
from repro.services.runtime import ServiceRuntime
from repro.simcore import SimClock
from repro.workload import BurstRate, ConstantRate, DiurnalRate, \
    WorkloadDriver, Wrk


class TestWorkloadDriver:
    def test_issues_rate_times_duration(self, hotel):
        stats = hotel.driver.run_events(10)  # 40 rps fixture
        assert stats.requests == 400

    def test_fractional_rates_accumulate(self, hotel):
        driver = WorkloadDriver(hotel.runtime, hotel.app.workload_mix(),
                                ConstantRate(0.5), seed=1)
        stats = driver.run_events(10)
        assert stats.requests == 5

    def test_clock_advances_exactly(self, hotel):
        t0 = hotel.clock.now
        hotel.driver.run_events(12.5)
        assert hotel.clock.now == pytest.approx(t0 + 12.5)

    def test_mix_respected_roughly(self, hotel):
        hotel.driver.run_events(30)
        per_op = hotel.driver.stats.per_operation
        # search_hotel weighted 0.6 should dominate
        assert per_op["search_hotel"] > per_op.get("login", 0)

    def test_zero_seconds_noop(self, hotel):
        stats = hotel.driver.run_events(0)
        assert stats.requests == 0

    def test_negative_rejected(self, hotel):
        with pytest.raises(ValueError):
            hotel.driver.run_events(-1)

    def test_empty_mix_rejected(self, hotel):
        with pytest.raises(ValueError):
            WorkloadDriver(hotel.runtime, {}, ConstantRate(1))

    @pytest.mark.parametrize("mix, entry", [
        ({"search_hotel": -1.0, "login": 2.0}, "search_hotel"),
        ({"search_hotel": math.nan, "login": 1.0}, "search_hotel"),
        ({"search_hotel": 1.0, "login": math.inf}, "login"),
        ({"search_hotel": 0.0}, "search_hotel"),
        ({"search_hotel": 1e308, "login": 1e308}, "inf"),
        ({"nope": 1.0}, "nope"),
    ])
    def test_bad_mix_rejected_at_construction(self, hotel, mix, entry):
        """A bad mix fails where it is written, not at the first tick."""
        with pytest.raises(ValueError, match=entry):
            WorkloadDriver(hotel.runtime, mix, ConstantRate(1))

    @pytest.mark.parametrize("setting, value", [
        ("max_requests_per_tick", -1),
        ("scrape_interval", 0.0),
        ("scrape_interval", -5.0),
        ("scrape_interval", math.nan),
        ("scrape_interval", math.inf),
    ])
    def test_bad_tick_settings_rejected_at_construction(self, hotel, setting,
                                                         value):
        """A negative cap used to pass here and fail the first tick inside
        the event loop, with numpy's "negative dimensions" error."""
        with pytest.raises(ValueError, match=setting):
            WorkloadDriver(hotel.runtime, hotel.app.workload_mix(),
                           ConstantRate(1), **{setting: value})

    def test_zero_cap_issues_nothing(self, hotel):
        driver = WorkloadDriver(hotel.runtime, hotel.app.workload_mix(),
                                ConstantRate(1), max_requests_per_tick=0)
        with pytest.warns(RuntimeWarning, match="clipped"):
            assert driver.run_events(3).requests == 0

    def test_scrape_happens_during_run(self, hotel):
        hotel.driver.run_events(12)  # default scrape interval 5s
        assert hotel.collector.metrics.series("frontend", "cpu_usage")

    def test_per_tick_cap_bounds_volume_and_warns(self, hotel):
        driver = WorkloadDriver(hotel.runtime, hotel.app.workload_mix(),
                                ConstantRate(10_000), seed=1,
                                max_requests_per_tick=50)
        with pytest.warns(RuntimeWarning, match="aggregate"):
            stats = driver.run_events(2)
        assert stats.requests <= 100

    def test_clipping_warns_once_per_driver(self, hotel):
        driver = WorkloadDriver(hotel.runtime, hotel.app.workload_mix(),
                                ConstantRate(10_000), seed=1,
                                max_requests_per_tick=50)
        with pytest.warns(RuntimeWarning) as record:
            driver.run_events(3)
        assert len([w for w in record
                    if issubclass(w.category, RuntimeWarning)]) == 1

    def test_uncapped_rate_does_not_warn(self, hotel):
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            hotel.driver.run_events(5)  # default 60 rps, far below the cap

    def test_error_rate_property(self, hotel):
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        hotel.driver.run_events(10)
        assert 0 < hotel.driver.stats.error_rate < 1

    def test_mean_latency(self, hotel):
        hotel.driver.run_events(5)
        assert hotel.driver.stats.mean_latency_ms > 0


class _RecordingRuntime:
    """Just enough runtime for a driver: records the ops it executes."""

    def __init__(self, ops):
        self.operations = dict.fromkeys(ops)
        self.clock = SimClock()
        self.executed: list[str] = []

    def holding_plans(self):
        return nullcontext()

    def execute(self, op):
        self.executed.append(op)
        return (op, True, 1.0, None, 0, [])


class TestOperationPick:
    @given(weights=st.lists(st.sampled_from([0.0, 1e-12, 1.0])
                            | st.floats(1e-12, 1e6), min_size=1, max_size=8),
           seed=st.integers(0, 2**32), n=st.integers(0, 40))
    def test_cdf_pick_matches_generator_choice(self, weights, seed, n):
        """A tick's picks equal ``n`` ``Generator.choice(len(ops), p=)``
        draws — the same ops and the same generator state after."""
        assume(sum(weights) > 0)
        ops = [f"op{i}" for i in range(len(weights))]
        runtime = _RecordingRuntime(ops)
        driver = WorkloadDriver(runtime, dict(zip(ops, weights)), seed=seed)
        reference = np.random.default_rng(driver.rng.seed)
        p = [w / sum(weights) for w in weights]
        expected = [ops[reference.choice(len(ops), p=p)] for _ in range(n)]
        driver._issue(n)
        assert runtime.executed == expected
        assert driver.rng.generator.bit_generator.state \
            == reference.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_one_vector_draw_equals_scalar_picks(self, n):
        """A tick draws its ``n`` picks as one ``random(n)``: the ops and
        the generator state after equal ``n`` scalar ``random()`` picks."""
        ops = ["a", "b", "c"]
        runtime = _RecordingRuntime(ops)
        driver = WorkloadDriver(runtime, {"a": 1.0, "b": 2.0, "c": 3.0}, seed=3)
        reference = np.random.default_rng(driver.rng.seed)
        expected = [ops[bisect_right(driver._cdf, reference.random())]
                    for _ in range(n)]
        driver._issue(n)
        assert runtime.executed == expected
        assert driver.rng.generator.bit_generator.state \
            == reference.bit_generator.state


class TestAggregateMode:
    """mode="aggregate": coalesced spans over execute_many batches."""

    @pytest.fixture(autouse=True)
    def _closing(self, closing):
        self.closing = closing

    def _env(self, fidelity, policy=None, rate=60.0, seed=5):
        return self.closing(CloudEnvironment(HotelReservation, seed=seed,
                                             workload_rate=rate, policy=policy,
                                             fidelity=fidelity))

    def test_invalid_mode_rejected(self, hotel):
        with pytest.raises(ValueError):
            WorkloadDriver(hotel.runtime, hotel.app.workload_mix(),
                           ConstantRate(1), mode="nope")

    def test_request_counts_match_per_request(self):
        """The span accumulator uses the same rate·span + carry arithmetic;
        only float rounding of the span product can shift a request across
        a boundary, so counts agree to within ±1 per window."""
        agg = self._env("aggregate")
        per = self._env("per_request")
        windows = (30.0, 3.7, 12.25, 0.4, 54.0)
        for w in windows:
            agg.advance(w)
            per.advance(w)
        assert per.driver.stats.requests == 6021  # 60 rps × 100.35 s (+float)
        assert abs(agg.driver.stats.requests
                   - per.driver.stats.requests) <= len(windows)

    def test_burst_rate_counts_match(self):
        policy = BurstRate(base=20, burst_factor=4, interval=60,
                           burst_duration=15)
        agg = self._env("aggregate", policy=policy)
        per = self._env("per_request", policy=policy)
        agg.advance(300.0)
        per.advance(300.0)
        assert agg.driver.stats.requests == per.driver.stats.requests

    def test_diurnal_falls_back_to_one_second_spans(self):
        policy = DiurnalRate(base=30, amplitude=0.5, period=120)
        agg = self._env("aggregate", policy=policy)
        per = self._env("per_request", policy=policy)
        agg.advance(240.0)
        per.advance(240.0)
        assert agg.driver.stats.requests == per.driver.stats.requests

    def test_constant_spans_coalesce_to_scrape_boundaries(self):
        env = self._env("aggregate")
        calls = []
        inner = env.runtime.execute_many_all
        env.runtime.execute_many_all = \
            lambda reqs: calls.append(list(reqs)) or inner(reqs)
        env.advance(100.0)  # 20 scrape-bounded spans, one fused call each
        assert len(calls) <= 20
        assert sum(n for span in calls for _, n in span) == 6000

    def test_statistics_match_under_fault(self):
        agg = self._env("aggregate")
        per = self._env("per_request")
        for env in (agg, per):
            env.app.backends["mongodb-geo"].revoke_roles("admin")
        ra = agg.probe_error_rate(60.0)
        rp = per.probe_error_rate(60.0)
        assert ra == pytest.approx(rp, abs=0.05)
        assert agg.driver.stats.mean_latency_ms == \
            pytest.approx(per.driver.stats.mean_latency_ms, rel=0.1)

    def test_scrape_series_same_shape(self):
        agg = self._env("aggregate")
        per = self._env("per_request")
        agg.advance(50.0)
        per.advance(50.0)
        ta, va = agg.collector.metrics.series("geo", "request_rate").window()
        tp, vp = per.collector.metrics.series("geo", "request_rate").window()
        assert len(ta) == len(tp)
        assert sum(va) == pytest.approx(sum(vp), rel=0.2)

    def test_rate_change_event_respected(self):
        """A queued set_rate-style event must bound the aggregate span."""
        env = self._env("aggregate", policy=ConstantRate(0.0))
        env.queue.schedule_at(
            20.0, lambda: setattr(env.driver, "policy", ConstantRate(50.0)))
        env.advance(40.0)
        assert env.driver.stats.requests == 50 * 20

    def test_deterministic_across_runs(self):
        a = self._env("aggregate")
        b = self._env("aggregate")
        a.advance(60.0)
        b.advance(60.0)
        assert a.driver.stats.requests == b.driver.stats.requests
        assert a.driver.stats.latency_sum_ms == b.driver.stats.latency_sum_ms
        assert a.driver.stats.per_operation == b.driver.stats.per_operation

    def test_high_rates_not_capped(self):
        """The per-request tick cap must not apply: batched execution is
        O(branches) in n, and high offered rates are the tier's purpose."""
        env = self._env("aggregate", rate=10_000.0)
        env.advance(10.0)
        assert env.driver.stats.requests == 100_000


class TestExecuteSeam:
    """The benchmark counts per-request work by wrapping
    ``ServiceRuntime.execute`` on the class: every request a driver issues
    is one call of it, and the aggregate tier makes none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls: list[str] = []
        execute = ServiceRuntime.execute

        @functools.wraps(execute)
        def counting(*args, **kwargs):
            calls.append(args[1])
            return execute(*args, **kwargs)

        monkeypatch.setattr(ServiceRuntime, "execute", counting)
        return calls

    def test_per_request_advance_calls_execute_once_per_request(
            self, calls, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=5))
        env.cluster.scale_deployment(env.namespace, "geo", 0)
        env.advance(10.0)
        assert env.driver.stats.errors > 0
        assert len(calls) == env.driver.stats.requests > 0
        env.runtime.execute("search_hotel")  # a bare call opens its own hold
        assert len(calls) == env.driver.stats.requests + 1

    def test_aggregate_advance_never_calls_execute(self, calls, closing):
        env = closing(CloudEnvironment(HotelReservation, seed=5,
                                       fidelity="aggregate"))
        env.advance(10.0)
        assert env.driver.stats.requests > 0
        assert calls == []


class TestWrk:
    def test_paper_api_shape(self, hotel):
        wrk = Wrk(rate=20, duration=5)
        wrk.bind(hotel.driver)
        stats = wrk.start_workload(url=hotel.app.frontend_url)
        assert stats.requests == 100

    def test_unbound_start_rejected(self):
        with pytest.raises(RuntimeError):
            Wrk(rate=10, duration=1).start_workload("http://x")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Wrk(rate=10, duration=-1)

"""The event kernel must be bit-identical to the seed's tick loop.

``CloudEnvironment.advance`` runs the discrete-event kernel
(``driver.run_events``).  The seed's hand-rolled 1-second tick loop — the
bit-exact reference implementation — lives *only* here now, as the
private :func:`legacy_run_for` fixture below (``WorkloadDriver.run_for``
was removed: it advanced the clock without firing queue events, so fault
timelines and resync stalled under it).  For any window sequence and
fixed seed the two must produce the same ``WorkloadStats``, the same RNG
draw order (hence bit-equal telemetry values) and the same scrape
timestamps, in idle windows as in loaded ones (the kernel ticks once per
virtual second whatever the rate) — this is what lets the 48-problem benchmark keep its
per-problem results unchanged while the environment gains scheduled fault
timelines.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps import HotelReservation, SocialNetwork
from repro.bench import BenchmarkRunner
from repro.core import CloudEnvironment
from repro.problems import scenario_pids
from repro.workload import BurstRate, ConstantRate, DiurnalRate

#: deliberately irregular: fractional windows move the tick grid around,
#: which is exactly what agent think-time latencies do in real sessions
WINDOWS = [30.0, 3.7, 5.0, 0.4, 12.3, 1.0, 17.77, 0.0, 8.25]


def legacy_run_for(driver, seconds: float):
    """The seed's 1-second tick loop, preserved bit-for-bit.

    This is the reference implementation the kernel is proven against:
    identical ``rate(t) * step + carry`` float expressions in identical
    order, the same ``now - last_scrape >= interval`` scrape check at the
    same post-advance boundaries.  It advances the clock directly and
    fires no queue events — which is exactly why it was removed from the
    public driver surface.
    """
    if seconds < 0:
        raise ValueError(f"seconds must be >= 0, got {seconds}")
    clock = driver.runtime.clock
    end = clock.now + seconds
    while clock.now < end:
        step = min(1.0, end - clock.now)
        t = clock.now
        want = driver.policy.rate(t) * step + driver._carry
        n = int(want)
        driver._carry = want - n
        driver._issue(min(n, driver.max_requests_per_tick))
        clock.advance(step)
        if clock.now - driver._last_scrape >= driver.scrape_interval:
            driver._scrape()
    return driver.stats


def stats_key(env):
    s = env.driver.stats
    return (s.requests, s.errors, s.latency_sum_ms, dict(s.per_operation))


def scrape_series(env, service="geo"):
    """(timestamps, values) of a scraped metric — bit-equal iff scrape
    times and the telemetry RNG draw order both match."""
    series = env.collector.metrics.series(service, "cpu_usage")
    assert series is not None
    return series.window()


class TestKernelEquivalence:
    @pytest.fixture(autouse=True)
    def _closing(self, closing):
        self.closing = closing

    def _pair(self, app=HotelReservation, **kwargs):
        return (self.closing(CloudEnvironment(app, **kwargs)),
                self.closing(CloudEnvironment(app, **kwargs)))

    def test_irregular_windows_bit_identical(self):
        kernel, legacy = self._pair(seed=3, workload_rate=45)
        for w in WINDOWS:
            kernel.advance(w)
            legacy_run_for(legacy.driver, w)
        assert kernel.clock.now == legacy.clock.now
        assert stats_key(kernel) == stats_key(legacy)
        tk, vk = scrape_series(kernel)
        tl, vl = scrape_series(legacy)
        assert np.array_equal(tk, tl), "scrape timestamps diverged"
        assert np.array_equal(vk, vl), "telemetry RNG draw order diverged"

    def test_social_network_app_equivalent(self):
        kernel, legacy = self._pair(app=SocialNetwork, seed=9,
                                    workload_rate=30)
        for w in [30.0, 2.5, 2.5, 41.0]:
            kernel.advance(w)
            legacy_run_for(legacy.driver, w)
        assert stats_key(kernel) == stats_key(legacy)
        tk, vk = scrape_series(kernel, "user-service")
        tl, vl = scrape_series(legacy, "user-service")
        assert np.array_equal(tk, tl) and np.array_equal(vk, vl)

    def test_fault_mid_run_equivalent(self):
        """Error outcomes (and their RNG draws) line up under a fault."""
        kernel, legacy = self._pair(seed=5, workload_rate=40)
        for env in (kernel, legacy):
            env.app.backends["mongodb-geo"].revoke_roles("admin")
        kernel.advance(25.0)
        legacy_run_for(legacy.driver, 25.0)
        assert kernel.driver.stats.errors > 0
        assert stats_key(kernel) == stats_key(legacy)

    def test_zero_rate_window_equivalent(self):
        """A zero-rate window serves nothing and still scrapes on time."""
        kernel, legacy = self._pair(seed=7, policy=ConstantRate(0.0))
        kernel.advance(1000.0)
        legacy_run_for(legacy.driver, 1000.0)
        assert kernel.driver.stats.requests == 0
        assert stats_key(kernel) == stats_key(legacy)
        tk, vk = scrape_series(kernel)
        tl, vl = scrape_series(legacy)
        assert len(tk) == 200  # every 5s scrape still happened
        assert np.array_equal(tk, tl) and np.array_equal(vk, vl)

    def test_zero_rate_fractional_window_grid(self):
        """Idle boundary times must use the same float accumulation as
        the loop even off the integer grid."""
        kernel, legacy = self._pair(seed=1, policy=ConstantRate(0.0))
        for w in [7.3, 93.1, 0.6, 55.55]:
            kernel.advance(w)
            legacy_run_for(legacy.driver, w)
        tk, _ = scrape_series(kernel)
        tl, _ = scrape_series(legacy)
        assert np.array_equal(tk, tl)

    def test_diurnal_night_clip_equivalent(self):
        """DiurnalRate with amplitude > 1 clips to zero for part of each
        cycle; the kernel must stay bit-identical to the loop across
        those idle spans."""
        policy = DiurnalRate(base=40, amplitude=1.6, period=120.0)
        kernel, legacy = self._pair(seed=4, policy=policy)
        for w in [30.0, 47.3, 61.2, 0.9, 100.0, 33.33]:
            kernel.advance(w)
            legacy_run_for(legacy.driver, w)
        assert kernel.driver.stats.requests > 0  # load does flow
        assert stats_key(kernel) == stats_key(legacy)
        tk, vk = scrape_series(kernel)
        tl, vl = scrape_series(legacy)
        assert np.array_equal(tk, tl) and np.array_equal(vk, vl)

    def test_zero_factor_burst_equivalent(self):
        """burst_factor=0 makes every burst window an idle span."""
        policy = BurstRate(base=50, burst_factor=0.0, interval=40.0,
                           burst_duration=12.0)
        kernel, legacy = self._pair(seed=8, policy=policy)
        for w in [25.0, 40.0, 7.5, 61.2, 90.0]:
            kernel.advance(w)
            legacy_run_for(legacy.driver, w)
        assert kernel.driver.stats.requests > 0
        assert stats_key(kernel) == stats_key(legacy)
        tk, vk = scrape_series(kernel)
        tl, vl = scrape_series(legacy)
        assert np.array_equal(tk, tl) and np.array_equal(vk, vl)

    def test_probe_error_rate_equivalent(self):
        kernel, legacy = self._pair(seed=2, workload_rate=30)
        for env in (kernel, legacy):
            env.app.backends["mongodb-geo"].revoke_roles("admin")
        k = kernel.probe_error_rate(10)
        legacy_run_for(legacy.driver, 10)
        s = legacy.driver.stats
        assert k == pytest.approx(s.errors / s.requests)
        assert stats_key(kernel) == stats_key(legacy)


class TestKernelRobustness:
    def test_legacy_run_for_does_not_poison_queue(self, closing):
        """run_for advances the clock past pending events (it bypasses the
        queue); the next advance() must fire them late, not crash."""
        env = closing(CloudEnvironment(HotelReservation, seed=1, workload_rate=30))
        legacy_run_for(env.driver, 40.0)          # resync event at t=30 now overdue
        env.advance(10.0)                 # must not raise
        assert env.clock.now == 50.0

    def test_queued_rate_change_applies_from_next_tick(self, closing):
        """A set_rate-style event inside an idle span takes effect at the
        first boundary after it fires."""
        from repro.workload import ConstantRate as CR
        env = closing(CloudEnvironment(HotelReservation, seed=1, policy=CR(0.0)))
        env.queue.schedule_at(
            2.0, lambda: setattr(env.driver, "policy", CR(50.0)))
        env.advance(10.0)
        # boundaries 2..9 each issue 50 requests under the new policy
        assert env.driver.stats.requests == 400

    def test_resync_fires_through_idle_window(self, closing):
        """The recurring resync fires on schedule through an idle window
        whose scrape interval spans many resyncs."""
        env = closing(CloudEnvironment(HotelReservation, seed=1,
                                       policy=ConstantRate(0.0),
                                       resync_interval=30.0))
        env.driver.scrape_interval = 300.0
        env.advance(900.0)
        assert env._resync.fired == 30
        assert env.driver.stats.requests == 0

    @staticmethod
    def _scheduled_labels(env, seconds):
        """Advance ``env`` and count the events queued, by label."""
        labels = Counter()
        schedule_at = env.queue.schedule_at

        def counting(t, action, label=""):
            labels[label] += 1
            return schedule_at(t, action, label=label)

        env.queue.schedule_at = counting
        env.advance(seconds)
        del env.queue.schedule_at
        return labels

    def test_idle_span_schedules_scrapes_and_resyncs_only(self):
        """An idle span is ticked like any other: over 10 000 idle virtual
        seconds the per-request tier queues one tick per second, each
        running its scrape check, plus the resyncs, and serves nothing."""
        env = CloudEnvironment(HotelReservation, seed=0,
                               policy=ConstantRate(0.0))
        env.driver.scrape_interval = 300.0
        labels = self._scheduled_labels(env, 10_000.0)
        assert len(scrape_series(env)[0]) == 33
        assert env._resync.fired == 333
        assert labels == {"workload.tick": 10_001,
                          "controller.resync": 333}
        assert env.driver.stats.requests == 0
        env.close()

    def test_idle_aggregate_span_ends_at_every_queued_event(self):
        """On the aggregate tier an idle window is one span per queued
        boundary: the 30 s resyncs cut the 300 s scrape intervals, so the
        driver queues one span per resync plus the first and the last."""
        env = CloudEnvironment(HotelReservation, seed=0,
                               policy=ConstantRate(0.0),
                               fidelity="aggregate")
        env.driver.scrape_interval = 300.0
        labels = self._scheduled_labels(env, 10_000.0)
        assert len(scrape_series(env)[0]) == 33
        assert labels == {"workload.batch": 333 + 2,
                          "controller.resync": 333}
        assert env.driver.stats.requests == 0
        env.close()


class TestTriggerFidelityEquivalence:
    """Metric-triggered timeline entries must fire at the same simulated
    time (± one scrape interval) under ``per_request`` and ``aggregate``
    fidelity: both tiers scrape at identical timestamps, request/error
    rates are exact counts in both, and aggregate spans never coalesce
    past a scrape (the earliest possible watch evaluation)."""

    def _fire_time(self, fidelity, seed, sustain=0.0):
        from repro.faults import FaultSchedule, MetricAbove
        env = CloudEnvironment(HotelReservation, seed=seed,
                               workload_rate=60, fidelity=fidelity)
        armed = (FaultSchedule()
                 .inject(10.0, "RevokeAuth", ("mongodb-geo",))
                 .when(MetricAbove("frontend", "error_rate", 2.0,
                                   sustain_s=sustain),
                       "PodFailure", ("recommendation",))
                 ).arm(env)
        env.advance(120.0)
        fired = {d: t for t, d in armed.log}
        env.close()
        return fired["inject PodFailure -> ['recommendation']"]

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_metric_trigger_same_time_across_fidelities(self, seed):
        scrape = 5.0  # the environments' scrape interval
        t_pr = self._fire_time("per_request", seed)
        t_ag = self._fire_time("aggregate", seed)
        assert abs(t_pr - t_ag) <= scrape

    def test_sustained_trigger_same_time_across_fidelities(self):
        t_pr = self._fire_time("per_request", 3, sustain=15.0)
        t_ag = self._fire_time("aggregate", 3, sustain=15.0)
        assert t_pr >= 10.0 + 15.0  # sustain window actually enforced
        assert abs(t_pr - t_ag) <= 5.0

    def test_trigger_fires_in_idle_window(self):
        """Scrapes run through an idle window, so a pending metric
        trigger on a quiet system fires at the first scrape."""
        from repro.faults import FaultSchedule, MetricBelow
        env = CloudEnvironment(HotelReservation, seed=1,
                               policy=ConstantRate(0.0))
        armed = (FaultSchedule()
                 .when(MetricBelow("frontend", "request_rate", 0.5),
                       "NetworkLoss", ("search",))
                 ).arm(env)
        env.advance(100.0)
        assert armed.log and armed.log[0][0] == 5.0  # first scrape
        env.close()


class TestKernelConcurrencyDeterminism:
    """Scenario problems run on the kernel; fan-out must stay bit-identical
    to serial, exactly like the benchmark problems."""

    PIDS = ("delayed_revoke_auth_hotel_res-detection-1",
            "cascade_geo_outage_hotel_res-localization-1")

    @staticmethod
    def case_key(case):
        return (case.agent, case.pid, case.success, case.steps,
                case.duration_s, case.input_tokens, case.output_tokens,
                sorted(case.details.items()))

    def test_concurrency_1_and_4_identical(self):
        assert set(self.PIDS) <= set(scenario_pids())
        serial = BenchmarkRunner(max_steps=12, seed=6, concurrency=1) \
            .run_suite(agents=("gpt-4-w-shell",), pids=self.PIDS)
        fanout = BenchmarkRunner(max_steps=12, seed=6, concurrency=4) \
            .run_suite(agents=("gpt-4-w-shell",), pids=self.PIDS)
        assert [self.case_key(c) for c in serial.cases] == \
            [self.case_key(c) for c in fanout.cases]

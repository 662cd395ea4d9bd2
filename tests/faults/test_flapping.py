"""Probabilistic flapping: ``fire_probability`` / ``jitter_s`` on
repeating metric entries — seeded, reproducible, and validated."""

import pytest

from repro.faults import FaultSchedule, MetricAbove
from repro.faults.schedule import TimelineEntry

from tests.faults.test_repeating import BURSTY, bursty_env


def flap_schedule(fire_probability=1.0, jitter_s=0.0):
    return FaultSchedule().when(
        MetricAbove("frontend", "request_rate", 100.0),
        "NetworkLoss", ("search",), repeat=0,
        fire_probability=fire_probability, jitter_s=jitter_s)


def run_flaps(seed, fire_probability, jitter_s=0.0, seconds=320.0):
    env = bursty_env(seed=seed)
    armed = flap_schedule(fire_probability, jitter_s).arm(env)
    env.advance(seconds)
    log = list(armed.log)
    env.close()
    return log


class TestEntryValidation:
    def test_flap_knobs_are_metric_only(self):
        with pytest.raises(ValueError, match="metric-triggered"):
            TimelineEntry(5.0, "inject", "NetworkLoss", ("search",),
                          fire_probability=0.5)
        with pytest.raises(ValueError, match="metric-triggered"):
            TimelineEntry(5.0, "inject", "NetworkLoss", ("search",),
                          jitter_s=2.0)

    def test_fire_probability_range(self):
        trig = MetricAbove("a", "error_rate", 1.0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fire_probability"):
                TimelineEntry(trig, "inject", "NetworkLoss", ("search",),
                              fire_probability=bad)

    def test_jitter_nonnegative(self):
        trig = MetricAbove("a", "error_rate", 1.0)
        with pytest.raises(ValueError, match="jitter_s"):
            TimelineEntry(trig, "inject", "NetworkLoss", ("search",),
                          jitter_s=-1.0)


class TestFlapRngLifecycle:
    def test_plain_timeline_allocates_no_flap_stream(self):
        """Schedules without flapping entries must not create the stream —
        arming them stays RNG-free (the bit-identity contract)."""
        env = bursty_env()
        armed = flap_schedule().arm(env)
        assert armed._flap_rng is None
        env.close()

    def test_flapping_timeline_gets_a_seeded_stream(self):
        env = bursty_env()
        armed = flap_schedule(fire_probability=0.5).arm(env)
        assert armed._flap_rng is not None
        env.close()


class TestFlapDeterminism:
    def test_same_seed_identical_flap_history(self):
        """Skips and jitter delays replay exactly under the same seed —
        both RNG paths (bernoulli skip + uniform jitter) exercised."""
        a = run_flaps(seed=4, fire_probability=0.6, jitter_s=3.0)
        b = run_flaps(seed=4, fire_probability=0.6, jitter_s=3.0)
        assert a == b
        assert len(a) >= 5            # every crossing leaves a log entry

    def test_skips_are_logged_but_not_injected(self):
        log = run_flaps(seed=4, fire_probability=0.5)
        skipped = [d for _, d in log if "(crossing skipped)" in d]
        fired = [d for _, d in log if "(crossing skipped)" not in d]
        assert skipped, "p=0.5 over 8 crossings never skipped"
        assert fired, "p=0.5 over 8 crossings never fired"

    def test_different_seed_diverges(self):
        a = run_flaps(seed=4, fire_probability=0.5)
        b = run_flaps(seed=5, fire_probability=0.5)
        assert [d for _, d in a] != [d for _, d in b]

    def test_certain_fire_matches_plain_schedule(self):
        """fire_probability=1.0, jitter_s=0 takes the exact legacy path:
        same firing times as a schedule without the knobs."""
        plain = run_flaps(seed=4, fire_probability=1.0, seconds=140.0)
        assert [t for t, _ in plain] == [5.0, 50.0, 95.0, 140.0]


class TestJitter:
    def test_jitter_defers_off_the_scrape_grid(self):
        """Crossings are detected at 5 s scrapes; jitter moves the actual
        injection to a uniform offset past the crossing."""
        # 145 s, not 140: the t=140 crossing's jittered injection lands
        # up to 4 s past the crossing and must still fall in the window
        base = run_flaps(seed=4, fire_probability=1.0, seconds=145.0)
        jittered = run_flaps(seed=4, fire_probability=1.0, jitter_s=4.0,
                             seconds=145.0)
        base_times = [t for t, _ in base]
        jit_times = [t for t, _ in jittered]
        assert len(jit_times) == len(base_times)
        for b, j in zip(base_times, jit_times):
            assert b <= j < b + 4.0
        assert jit_times != base_times  # some delay actually drawn

"""Flapping faults: repeating metric entries and time-based
``FaultSchedule.flapping`` — every crossing fires, deterministically,
with no random stream of their own."""

import pytest

from repro.faults import AfterEvent, FaultSchedule, MetricAbove
from repro.faults.schedule import TimelineEntry

from tests.faults.test_repeating import BURSTY, bursty_env


def flap_schedule(threshold=100.0):
    return FaultSchedule().when(
        MetricAbove("frontend", "request_rate", threshold),
        "NetworkLoss", ("search",), repeat=0)


def run_flaps(seed, seconds=320.0, schedule=None):
    env = bursty_env(seed=seed)
    armed = (schedule or flap_schedule()).arm(env)
    env.advance(seconds)
    log = list(armed.log)
    stats = (env.driver.stats.requests, env.driver.stats.errors,
             env.driver.stats.latency_sum_ms)
    env.close()
    return log, stats


class TestEntryValidation:
    def test_flap_knobs_are_metric_only(self):
        """``repeat`` is the one flapping knob an entry has, and only a
        metric trigger can re-fire; the probability and jitter knobs are
        not accepted at all."""
        for trig in (5.0, AfterEvent("up", 1.0)):
            with pytest.raises(ValueError, match="metric-triggered"):
                TimelineEntry(trig, "inject", "NetworkLoss", ("search",),
                              repeat=0)
        trig = MetricAbove("a", "error_rate", 1.0)
        for knob in ("fire_probability", "jitter_s"):
            with pytest.raises(TypeError, match=knob):
                TimelineEntry(trig, "inject", "NetworkLoss", ("search",),
                              **{knob: 0.5})


class TestFlapRngLifecycle:
    def test_plain_timeline_allocates_no_flap_stream(self):
        """Arming a repeating entry draws from no random stream: a flap
        watch that never fires leaves the run bit-identical to an
        unarmed one (the bit-identity contract)."""
        quiet = flap_schedule(threshold=1e9)
        _, unarmed = run_flaps(seed=4, seconds=140.0,
                               schedule=FaultSchedule())
        log, armed = run_flaps(seed=4, seconds=140.0, schedule=quiet)
        assert log == []
        assert armed == unarmed


class TestFlapDeterminism:
    def test_same_seed_identical_flap_history(self):
        a = run_flaps(seed=4)
        b = run_flaps(seed=4)
        assert a == b
        assert len(a[0]) >= 5         # every crossing leaves a log entry

    def test_skips_are_logged_but_not_injected(self):
        """Nothing recovers the fault between bursts, so every crossing
        after the first is logged "(still live)" and applies nothing: the
        injector holds one live record, not one per crossing."""
        env = bursty_env(seed=4)
        armed = flap_schedule().arm(env)
        env.advance(320.0)
        still_live = [d for _, d in armed.log if "(still live)" in d]
        assert len(armed.log) == 8
        assert len(still_live) == 7
        assert "(still live)" not in armed.log[0][1]
        live = [r for inj in armed._injectors.values() for r in inj.live
                if r.active]
        assert len(live) == 1
        env.close()

    def test_different_seed_diverges(self):
        """A flap history is a function of the rate policy alone, so it
        is the same under any seed; the seed drives the requests served
        under the flapping fault, and those diverge."""
        log_a, stats_a = run_flaps(seed=4)
        log_b, stats_b = run_flaps(seed=5)
        assert log_a == log_b
        assert stats_a != stats_b

    def test_certain_fire_matches_plain_schedule(self):
        """Every crossing fires: a load-triggered flap lands exactly where
        the time-based flapping shape with the burst period injects."""
        log, _ = run_flaps(seed=4, seconds=140.0)
        plain = FaultSchedule.flapping(
            "NetworkLoss", ("search",), start=5.0,
            period=BURSTY["interval"], on_for=10.0, cycles=4)
        plain_injects = [e.at for e in plain.entries if e.kind == "inject"]
        assert [t for t, _ in log] == plain_injects == [5.0, 50.0, 95.0,
                                                        140.0]


class TestJitter:
    def test_jitter_defers_off_the_scrape_grid(self):
        """Crossings are detected at 5 s scrapes; a chained ``after``
        delay is what moves an action off that grid."""
        sched = (FaultSchedule()
                 .when(MetricAbove("frontend", "request_rate", 100.0),
                       "NetworkLoss", ("search",), repeat=0, tag="flap")
                 .after("flap", "NetworkLoss", ("search",), delay=2.5,
                        kind="recover"))
        log, _ = run_flaps(seed=4, seconds=60.0, schedule=sched)
        times = [t for t, _ in log]
        # the chain is released on the tag's first firing only
        assert times == [5.0, 7.5, 50.0]
        assert [d.split()[0] for _, d in log] == ["inject", "recover",
                                                 "inject"]


class TestTimeFlapping:
    def test_flapping_fires_at_the_same_times_on_both_tiers(self):
        """Time-based flapping entries fire at their exact offsets, off
        the scrape grid, on either fidelity tier."""
        logs = []
        for fidelity in ("per_request", "aggregate"):
            env = bursty_env(fidelity=fidelity)
            armed = FaultSchedule.flapping(
                "NetworkLoss", ("search",), start=2.5, period=20.0,
                on_for=7.5, cycles=3).arm(env)
            env.advance(60.0)
            logs.append(list(armed.log))
            env.close()
        assert logs[0] == logs[1]
        assert [t for t, _ in logs[0]] == [2.5, 10.0, 22.5, 30.0,
                                           42.5, 50.0]

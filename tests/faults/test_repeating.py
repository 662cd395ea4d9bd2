"""Repeating triggers: ``FaultSchedule.when(..., repeat=N)`` + ``MetricWatch.rearm``.

The first schedule shape built on watch re-arming: an armed metric entry
whose watch re-arms itself after each firing, with crossing semantics
(``require_clear``) so it fires once per threshold *crossing*, not once
per scrape while the signal stays high.  Covers the loop itself, the
repeat cap, cancellation mid-loop, and per-request/aggregate parity of
the firing times.
"""

import pytest

from repro.apps import HotelReservation
from repro.core import CloudEnvironment
from repro.faults import FaultSchedule, MetricAbove
from repro.faults.schedule import TimelineEntry
from repro.telemetry.watch import MetricWatch
from repro.workload import BurstRate

#: bursts [0,15), [45,60), [90,105), ... at 4× base — each burst is one
#: distinct crossing of a request-rate threshold between base and peak
BURSTY = dict(base=40.0, burst_factor=4.0, interval=45.0,
              burst_duration=15.0)


def bursty_env(seed=4, fidelity="per_request"):
    return CloudEnvironment(HotelReservation, seed=seed,
                            policy=BurstRate(**BURSTY), fidelity=fidelity)


def crossing_schedule(max_fires=0):
    return FaultSchedule().when(
        MetricAbove("frontend", "request_rate", 100.0),
        "NetworkLoss", ("search",), repeat=max_fires)


class TestWatchRequireClear:
    def test_fires_once_per_crossing_not_per_scrape(self):
        w = MetricWatch("svc", "request_rate", 10.0, require_clear=True)
        fired = []
        w.callback = lambda: (fired.append(w.fired_at), w.rearm())
        # crossing 1: two satisfying scrapes → exactly one firing
        assert w.evaluate(5.0, 20.0) and not w.evaluate(10.0, 20.0)
        # still high → blocked until a clear scrape
        assert not w.evaluate(15.0, 30.0)
        # clear, then crossing 2
        assert not w.evaluate(20.0, 5.0)
        assert w.evaluate(25.0, 20.0)
        assert fired == [5.0, 25.0]
        assert w.fire_count == 2

    def test_sustain_window_restarts_each_crossing(self):
        w = MetricWatch("svc", "request_rate", 10.0, sustain_s=10.0,
                        require_clear=True)
        w.callback = w.rearm
        assert not w.evaluate(0.0, 20.0)
        assert w.evaluate(10.0, 20.0)          # sustained 10 s → fire 1
        assert not w.evaluate(15.0, 5.0)       # clear
        assert not w.evaluate(20.0, 20.0)      # sustain restarts...
        assert not w.evaluate(25.0, 20.0)
        assert w.evaluate(30.0, 20.0)          # ...and completes → fire 2
        assert w.fire_count == 2

    def test_plain_watch_unaffected(self):
        """Without require_clear a rearmed watch may re-fire while the
        signal is still past the threshold (every-satisfying-scrape)."""
        w = MetricWatch("svc", "request_rate", 10.0)
        w.callback = w.rearm
        assert w.evaluate(5.0, 20.0)
        assert w.evaluate(10.0, 20.0)
        assert w.fire_count == 2


class TestEveryCrossing:
    def test_entry_validation(self):
        with pytest.raises(ValueError, match="metric-triggered"):
            TimelineEntry(5.0, "inject", "NetworkLoss", ("search",),
                          repeat=0)
        with pytest.raises(ValueError, match="repeat must be >= 0"):
            TimelineEntry(MetricAbove("a", "error_rate", 1.0), "inject",
                          "NetworkLoss", ("search",), repeat=-1)

    def test_fires_once_per_burst(self):
        """Every 45 s burst crosses the threshold once; the entry fires
        exactly once per burst however many scrapes the burst spans."""
        env = bursty_env()
        armed = crossing_schedule().arm(env)
        env.advance(140.0)  # bursts [0,15), [45,60), [90,105), [135,140]
        times = [t for t, _ in armed.log]
        assert times == [5.0, 50.0, 95.0, 140.0]
        assert armed.watches[0].fire_count == 4
        assert armed.pending == 1  # the re-armed watch is live again
        env.close()

    def test_max_fires_caps_the_loop(self):
        env = bursty_env()
        armed = crossing_schedule(max_fires=2).arm(env)
        env.advance(200.0)
        assert len(armed.log) == 2
        assert armed.watches[0].fire_count == 2
        assert armed.pending == 0  # budget spent: watch not re-armed
        env.close()

    def test_cancel_mid_loop_stops_rearming(self):
        env = bursty_env()
        armed = crossing_schedule().arm(env)
        env.advance(60.0)
        fired = len(armed.log)
        assert fired >= 2
        armed.cancel_pending()
        assert armed.pending == 0
        env.advance(100.0)  # two more bursts — nothing may fire
        assert len(armed.log) == fired
        assert not armed.watches[0].pending
        assert env.collector.pending_watches() == []
        env.close()

    def test_inject_recover_loop_via_two_repeating_entries(self):
        """The auto-remediation composition: one repeating entry injects
        on load crossings, a second repeating entry recovers on the error
        crossings the first one causes."""
        env = bursty_env()
        armed = (FaultSchedule()
                 .when(MetricAbove("frontend", "request_rate", 100.0),
                       "NetworkLoss", ("search",), repeat=0)
                 .when(MetricAbove("frontend", "error_rate", 0.5,
                                   sustain_s=5.0),
                       "NetworkLoss", ("search",), kind="recover",
                       repeat=0)).arm(env)
        env.advance(120.0)
        kinds = [d.split()[0] for _, d in armed.log]
        assert kinds.count("inject") >= 2
        assert kinds.count("recover") >= 2
        # strict alternation: every recover follows its inject
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        env.close()


class TestRepeatingAggregateParity:
    """A repeating trigger must fire at the same simulated times (± one
    scrape interval) under per_request and aggregate fidelity — aggregate
    spans never coalesce past the next scrape, the rearmed watch's next
    possible evaluation."""

    def _fire_times(self, fidelity, seed):
        env = bursty_env(seed=seed, fidelity=fidelity)
        armed = crossing_schedule().arm(env)
        env.advance(140.0)
        times = [t for t, _ in armed.log]
        env.close()
        return times

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_fire_times_within_one_scrape(self, seed):
        pr = self._fire_times("per_request", seed)
        ag = self._fire_times("aggregate", seed)
        assert len(pr) == len(ag) >= 3
        for a, b in zip(pr, ag):
            assert abs(a - b) <= 5.0  # the scrape interval

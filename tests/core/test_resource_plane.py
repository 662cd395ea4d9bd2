"""Resource-plane integration: emergent contention, HPA sessions, and the
coupling-off bit-identity contract."""

import numpy as np

from repro.agents.registry import build_agent_for
from repro.apps import HotelReservation
from repro.core import CloudEnvironment, Orchestrator
from repro.kubesim import HpaPolicy
from repro.problems import get_problem
from repro.problems.scenarios import HOTEL_NS, SOCIAL_NS

from tests.core.test_kernel_equivalence import scrape_series, stats_key

WINDOWS = [30.0, 3.7, 5.0, 0.4, 12.3, 1.0, 17.77, 8.25]


class TestEmergentContention:
    def test_co_tenant_degradation_without_any_fault(self):
        """Two apps on one undersized node degrade each other purely from
        workload — the timeline is empty, nothing is ever injected."""
        prob = get_problem(
            "emergent_contention_multi_hotel_res-detection-1")
        env = prob.create_environment(seed=11)
        prob.start_workload(env)
        prob.inject_fault(env)
        assert prob.armed is not None
        assert prob.armed.log == []      # empty timeline: nothing to fire

        max_mult = 1.0
        max_shed = 0.0
        for _ in range(40):              # 200 s in rollup-sized steps
            env.advance(5.0)
            max_mult = max(max_mult,
                           env.resources.multiplier_for(HOTEL_NS, "frontend"))
            max_shed = max(max_shed,
                           env.resources.overload_p(HOTEL_NS, "frontend"))

        # the neighbor's bursts pushed the shared node past both knees,
        # and the hotel app — which has no fault and no burst — felt it
        assert max_mult > 1.0
        assert max_shed > 0.0
        assert env.driver_for(HOTEL_NS).stats.errors > 0
        assert env.driver_for(SOCIAL_NS).stats.errors > 0
        # still nothing injected
        assert prob.armed.log == []
        env.close()

    def test_contention_recovers_between_bursts(self):
        prob = get_problem(
            "emergent_contention_multi_hotel_res-detection-1")
        env = prob.create_environment(seed=11)
        prob.start_workload(env)
        prob.inject_fault(env)
        mults = []
        for _ in range(40):
            env.advance(5.0)
            mults.append(env.resources.multiplier_for(HOTEL_NS, "frontend"))
        # pressure comes and goes with the neighbor's burst cycle
        assert max(mults) > 1.0
        assert min(mults) == 1.0
        env.close()


class TestHpaSession:
    def test_spike_scales_up_then_back_down_in_graded_session(self):
        """The HPA scenario, end-to-end through the grading path: the
        autoscaler reacts during the agent's session, scaling the
        frontend up under the spike and back down after stabilization."""
        prob = get_problem("hpa_spike_recovery_hotel_res-detection-1")
        orch = Orchestrator(seed=0)
        handle = orch.create_session(prob, seed=11)
        agent = build_agent_for("gpt-4-w-shell", handle.context,
                                prob.task_type, seed=11)
        handle.bind_agent(agent, name="gpt-4-w-shell")
        result = handle.run_sync(max_steps=12)
        assert isinstance(result["success"], bool)

        env = handle.env
        log = env.autoscaler.log
        # the session may end before the scale-down stabilization window
        # elapses — give the clock room, then require the full cycle
        deadline = env.clock.now + 240.0
        while env.clock.now < deadline and not any(
                old > new for (_, _, _, old, new) in log):
            env.advance(10.0)

        frontend = [(old, new) for (_, ns, dep, old, new) in log
                    if ns == HOTEL_NS and dep == "frontend"]
        assert any(new > old for old, new in frontend), log
        assert any(new < old for old, new in frontend), log
        # rescales surfaced as cluster events an agent can discover
        reasons = [e.reason for e in env.cluster.events_in(HOTEL_NS)]
        assert "SuccessfulRescale" in reasons
        orch.release(handle)


class TestCouplingOffBitIdentity:
    """``resource_coupling=False`` (the default) and a coupled-but-idle
    plane must leave workload execution bit-identical — the contract that
    keeps all 48 benchmark problems' results unchanged."""

    def _drain(self, env):
        for w in WINDOWS:
            env.advance(w)

    def _assert_identical(self, a, b):
        assert a.clock.now == b.clock.now
        assert stats_key(a) == stats_key(b)
        ta, va = scrape_series(a)
        tb, vb = scrape_series(b)
        assert np.array_equal(ta, tb), "scrape timestamps diverged"
        assert np.array_equal(va, vb), "telemetry RNG draw order diverged"

    def test_coupled_but_below_knee_is_bit_identical(self):
        plain = CloudEnvironment(HotelReservation, seed=5, workload_rate=60)
        coupled = CloudEnvironment(HotelReservation, seed=5,
                                   workload_rate=60, resource_coupling=True)
        self._drain(plain)
        self._drain(coupled)
        # the plane really ran, saw demand, and published nothing
        assert coupled.resources.rollups > 0
        usage = coupled.resources.node_usage()
        assert max(u.used_mcores for u in usage) > 0.0
        assert max(u.cpu_utilization for u in usage) < 0.7
        self._assert_identical(plain, coupled)
        plain.close()
        coupled.close()

    def test_autoscale_only_plane_is_bit_identical_when_stable(self):
        """An HPA-only environment (coupling off) observes utilization but
        never perturbs execution while the deployment is correctly sized."""
        plain = CloudEnvironment(HotelReservation, seed=5, workload_rate=60)
        hpa = CloudEnvironment(
            HotelReservation, seed=5, workload_rate=60,
            autoscale=(HpaPolicy(namespace=HOTEL_NS, deployment="frontend",
                                 target_utilization=0.7),))
        self._drain(plain)
        self._drain(hpa)
        assert hpa.resources.rollups > 0
        assert hpa.autoscaler.log == []   # sized right: never rescaled
        # demand observed, degradation never published (uncoupled plane)
        assert hpa.resources.utilization_of(HOTEL_NS, "frontend", 1) > 0.0
        assert hpa.resources.multiplier_for(HOTEL_NS, "frontend") == 1.0
        self._assert_identical(plain, hpa)
        plain.close()
        hpa.close()

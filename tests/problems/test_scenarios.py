"""Scenario problems: scheduled-fault timelines end-to-end via sessions."""

import pytest

from repro.agents.registry import build_agent
from repro.apps import HotelReservation
from repro.core import Orchestrator
from repro.core.env import AppSpec
from repro.faults import FaultSchedule
from repro.problems import (
    benchmark_pids,
    get_problem,
    list_problems,
    scenario_pids,
)
from repro.problems.scenarios import Scenario


def run_session(prob, agent_name="gpt-4-w-shell", seed=11, max_steps=12):
    orch = Orchestrator(seed=0)
    handle = orch.create_session(prob, seed=seed)
    agent = build_agent(agent_name, *handle.context, prob.task_type,
                        seed=seed)
    handle.bind_agent(agent, name=agent_name)
    result = handle.run_sync(max_steps=max_steps)
    orch.release(handle)
    return result, handle.env


class TestScenarioRegistration:
    def test_at_least_nineteen_scenarios(self):
        assert len(scenario_pids()) >= 19

    def test_benchmark_set_untouched(self):
        assert len(benchmark_pids()) == 48
        assert not set(scenario_pids()) & set(benchmark_pids())

    def test_default_listing_excludes_scenarios(self):
        assert len(list_problems()) == 48
        with_scen = list_problems(include_scenarios=True)
        assert set(scenario_pids()) <= set(with_scen)

    def test_get_problem_resolves_scenarios(self):
        for pid in scenario_pids():
            prob = get_problem(pid)
            assert prob.pid == pid

    def test_scenario_shapes_present(self):
        pids = " ".join(scenario_pids())
        assert "delayed" in pids
        assert "flapping" in pids
        assert "cascade" in pids
        assert "load_triggered" in pids
        assert "chained" in pids
        assert "highrate" in pids
        assert "multi" in pids

    def test_at_least_four_multi_app_scenarios(self):
        multi = [p for p in scenario_pids() if "_multi_" in p]
        assert len(multi) >= 4
        assert any("highrate" in p for p in multi)

    def test_both_apps_covered(self):
        assert any("hotel_res" in p for p in scenario_pids())
        assert any("social_net" in p for p in scenario_pids())

    def test_at_least_two_load_triggered(self):
        assert sum("load_triggered" in p or "error_cascade" in p
                   for p in scenario_pids()) >= 2

    def test_at_least_two_high_rate_aggregate(self):
        high = [p for p in scenario_pids() if "highrate" in p]
        assert len(high) >= 2
        for pid in high:
            prob = get_problem(pid)
            assert prob.fidelity == "aggregate"
            assert prob.workload_rate >= 1000.0


class TestScenarioSessions:
    @pytest.mark.parametrize("pid", sorted(
        __import__("repro.problems", fromlist=["scenario_pids"])
        .scenario_pids()))
    def test_runs_end_to_end_via_create_session(self, pid):
        prob = get_problem(pid)
        result, env = run_session(prob)
        assert result["pid"] == pid
        assert isinstance(result["success"], bool)
        assert result["steps"] >= 1
        assert env.armed is not None, "timeline must be armed"

    def test_timeline_fires_during_session(self):
        """The environment changes *while the agent works* — the dynamic
        property the scenarios exist to exercise."""
        orch = Orchestrator(seed=0)
        prob = get_problem("flapping_network_loss_hotel_res-detection-1")
        handle = orch.create_session(prob, seed=11)
        started = handle.env.clock.now
        agent = build_agent("flash", *handle.context, prob.task_type,
                            seed=11)
        handle.bind_agent(agent, name="flash")
        handle.run_sync(max_steps=12)
        fired_during_session = [t for t, _ in handle.env.armed.log
                                if t > started]
        assert fired_during_session, \
            "at least one timeline entry must fire mid-session"
        orch.release(handle)

    def test_recover_fault_stops_and_cleans(self):
        prob = get_problem("delayed_revoke_auth_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        prob.inject_fault(env)
        assert env.armed.pending == 1
        prob.recover_fault(env)
        assert env.armed.pending == 0
        env.advance(60.0)
        assert env.armed.log == []
        assert env.probe_error_rate(10.0) == 0.0
        env.close()

    def test_delayed_onset_healthy_at_session_start(self):
        prob = get_problem("delayed_revoke_auth_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        prob.inject_fault(env)     # soak 30s < 40s onset delay
        assert env.driver.stats.errors == 0
        env.advance(20.0)          # ...but it breaks shortly after
        assert env.driver.stats.errors > 0
        env.close()


class TestConditionTriggeredScenarios:
    def test_load_triggered_fault_waits_for_the_burst(self):
        """The fault must not exist until traffic actually crosses the
        threshold — condition, not appointment."""
        prob = get_problem("load_triggered_network_loss_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)       # bursts [0,15) [45,60) ...
        prob.inject_fault(env)         # arms at t=30, soaks to t=60
        (t, desc), = env.armed.log
        assert "NetworkLoss" in desc
        assert t == 50.0               # first scrape inside the t=45 burst
        assert env.driver.stats.errors > 0
        env.close()

    def test_error_cascade_second_fault_is_conditioned(self):
        """The pod failure fires only after the revoked auth has pushed
        the frontend error rate over threshold for the sustain window."""
        prob = get_problem("error_cascade_hotel_res-localization-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        prob.inject_fault(env)
        times = dict((d, t) for t, d in env.armed.log)
        root = times["inject RevokeAuth -> ['mongodb-geo']"]
        cascade = times["inject PodFailure -> ['recommendation']"]
        assert cascade >= root + 10.0  # at least the sustain window later
        env.close()

    def test_chained_relapse_anchors_to_firing_times(self):
        prob = get_problem("chained_loss_relapse_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        prob.inject_fault(env)
        env.advance(120.0)
        kinds = [d.split()[0] for _, d in env.armed.log]
        times = [t for t, _ in env.armed.log]
        assert kinds == ["inject", "recover", "inject"]
        assert times[1] == times[0] + 25.0
        assert times[2] == times[1] + 20.0
        env.close()

    def test_high_rate_aggregate_delivers_offered_load(self):
        """1000 rps is actually delivered (no per-tick cap) and grading
        sees the fault through aggregate telemetry."""
        prob = get_problem("highrate_revoke_auth_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)      # 30s warmup at 1000 rps
        assert env.driver.stats.requests == pytest.approx(30_000, abs=100)
        prob.inject_fault(env)
        env.advance(30.0)             # past the 40s onset
        assert env.driver.stats.errors > 0
        env.close()


class TestAggregateGradingAgreement:
    """Satellite: every scenario family's detection/localization grading
    must agree across execution fidelities on fixed seeds — the scenarios'
    signals are aggregate telemetry, so the batched tier grades the same
    incidents the per-request tier does."""

    #: (pid, fixed seed).  Outcomes are deterministic per (fidelity, seed);
    #: agreement is asserted on a pinned seed per family because the
    #: simulated agent reads observation *text*, and aggregate telemetry
    #: carries exemplar-sampled (not per-request) logs/traces — on some
    #: seeds that nudges the agent down a different-but-valid path.
    FAMILIES = [
        ("delayed_revoke_auth_hotel_res-detection-1", 11),
        ("flapping_network_loss_hotel_res-detection-1", 11),
        ("flapping_pod_failure_hotel_res-localization-1", 4),
        ("cascade_geo_outage_hotel_res-localization-1", 11),
        ("load_triggered_network_loss_hotel_res-detection-1", 11),
        ("error_cascade_hotel_res-localization-1", 11),
        ("chained_loss_relapse_hotel_res-detection-1", 11),
        ("delayed_scale_zero_social_net-detection-1", 11),
        ("flapping_misconfig_social_net-detection-1", 11),
        ("cascade_social_outage_social_net-localization-1", 11),
        ("load_triggered_scale_zero_social_net-localization-1", 11),
        # multi-app families (cross-app triggers; high-rate variant
        # excluded like the other highrate pids — the per-request tick
        # cap clips 1k+ rps offered load, and since PR 8 warns about it
        # loudly; those pids declare fidelity="aggregate" and have no
        # per-request tier to agree with)
        ("noisy_neighbor_multi_hotel_res-detection-1", 11),
        ("shared_backend_cascade_multi_hotel_res-localization-1", 11),
        ("cross_app_remediation_multi_social_net-detection-1", 11),
    ]

    @pytest.mark.parametrize("pid,seed", FAMILIES)
    def test_grading_agrees_across_fidelities(self, pid, seed):
        results = {}
        for fidelity in ("per_request", "aggregate"):
            prob = get_problem(pid)
            prob.fidelity = fidelity
            results[fidelity], _ = run_session(prob, seed=seed)
        pr, ag = results["per_request"], results["aggregate"]
        assert pr["success"] == ag["success"]
        assert pr["steps"] == ag["steps"]


class TestMultiAppScenarios:
    """Scenarios hosted on a two-app CloudEnvironment: the trigger watches
    one app's telemetry, the fault lands in the other."""

    def test_noisy_neighbor_cross_app_wiring(self):
        prob = get_problem("noisy_neighbor_multi_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        assert len(env.apps) == 2
        prob.start_workload(env)
        prob.inject_fault(env)
        (t, desc), = env.armed.log
        assert t == 50.0  # first scrape inside the neighbor's t=45 burst
        assert "@test-hotel-reservation" in desc
        # fault lives in the hotel app; the storming neighbor stays healthy
        env.advance(20.0)
        assert env.driver_for("test-hotel-reservation").stats.errors > 0
        assert env.driver_for("test-social-network").stats.errors == 0
        env.close()

    def test_remediation_loop_cycles(self):
        prob = get_problem("cross_app_remediation_multi_social_net-detection-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        prob.inject_fault(env)
        env.advance(150.0)
        kinds = [d.split()[0] for _, d in env.armed.log]
        assert kinds.count("inject") >= 2, "storm must re-trigger interference"
        assert kinds.count("recover") >= 2, "remediation must re-fire too"
        prob.recover_fault(env)
        assert env.armed.pending == 0
        env.close()

    def test_description_introduces_both_namespaces(self):
        prob = get_problem("noisy_neighbor_multi_hotel_res-detection-1")
        env = prob.create_environment(seed=4)
        desc = prob.problem_description(env)
        # the primary namespace leads (scaffolds parse the first match)
        assert desc.index('namespace "test-hotel-reservation"') < \
            desc.index('namespace "test-social-network"')
        assert desc.rstrip().splitlines()[-1].startswith("Task:")
        env.close()

    def test_shared_backend_cascade_unfolds_in_order(self):
        prob = get_problem(
            "shared_backend_cascade_multi_hotel_res-localization-1")
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        prob.inject_fault(env)
        env.advance(60.0)
        times = {d.split()[1]: t for t, d in env.armed.log}
        assert times["PodFailure"] == times["RevokeAuth"] + 30.0
        env.close()

    def test_highrate_variant_delivers_aggregate_load(self):
        prob = get_problem("highrate_noisy_neighbor_multi_hotel_res-detection-1")
        assert prob.fidelity == "aggregate"
        env = prob.create_environment(seed=4)
        prob.start_workload(env)
        assert env.driver.stats.requests == pytest.approx(30_000, abs=100)
        prob.inject_fault(env)
        env.advance(30.0)
        assert env.armed.log, "cross-app trigger must fire at scale"
        assert env.driver.stats.errors > 0
        env.close()


class TestScenarioRecord:
    """A record is values on a task class: it states only what a task
    class can grade, and a one-app record restating a paper problem
    prepares the paper problem's environment."""

    def test_rejects_ungradable_task_and_empty_apps(self):
        hotel = (AppSpec(HotelReservation),)
        for task in ("analysis", "triage"):
            with pytest.raises(ValueError, match="task"):
                Scenario(pid="x_hotel_res-detection-1", task=task,
                         apps=hotel, target="geo")
        with pytest.raises(ValueError, match="app"):
            Scenario(pid="x_hotel_res-detection-1", task="detection",
                     apps=(), target="geo")

    def test_one_app_record_equals_paper_problem(self):
        pid = "revoke_auth_hotel_res-detection-1"
        record = Scenario(
            pid=pid, task="detection",
            apps=(AppSpec(HotelReservation, workload_rate=60.0),),
            target="mongodb-geo", expected="yes", fidelity="per_request",
            timeline=FaultSchedule().inject(0.0, "RevokeAuth",
                                            ("mongodb-geo",)))
        seen = []
        for prob in (record.problem(), get_problem(pid)):
            env = prob.prepare(4)
            env.advance(30.0)
            c = env.collector
            seen.append((prob.problem_description(env), prob.ans,
                         env.driver.stats, env.armed.log,
                         c.metrics._series, c.logs._records, len(c.traces)))
            env.close()
        assert seen[0] == seen[1]
        assert seen[0][2].errors > 0

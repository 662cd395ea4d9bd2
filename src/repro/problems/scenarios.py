"""Scheduled-fault scenario problems: timelines the agent lives through.

The 48-problem benchmark injects its fault before the agent is engaged and
keeps it active for the whole session.  The scenarios here exercise the
event kernel's capabilities — the fault *timeline* unfolds while the agent
works:

* **delayed onset** — the system is healthy when the session starts and
  breaks mid-investigation;
* **flapping** — the fault comes and goes, so a single probe can miss it;
* **cascade** — a second fault lands while the first is being diagnosed;
* **surge** — a traffic-burst rate policy takes over as the fault lands;
* **load-triggered** — the fault fires only once the system crosses a
  telemetry threshold (a :class:`~repro.faults.triggers.MetricAbove`
  trigger evaluated at scrape time), so symptom and fault interact;
* **chained** — entries fire relative to *other entries'* firing
  (:class:`~repro.faults.triggers.AfterEvent`), whatever triggered them;
* **high-rate** — 1k–2k rps variants at ``fidelity="aggregate"``, the
  batched execution tier, on both applications;
* **multi-app** — several applications co-hosted on one environment
  (shared clock/queue/collector, separate namespaces), where a metric
  watch on one app's telemetry fires faults into the other: noisy
  neighbor, shared-backend contention cascades, and a telemetry-driven
  cross-app **auto-remediation loop** built on repeating triggers
  (:meth:`~repro.faults.schedule.FaultSchedule.every_crossing` /
  :meth:`~repro.telemetry.watch.MetricWatch.rearm`);
* **resource-plane** — incidents with *no injected fault at all*: the
  :class:`~repro.kubesim.resources.ResourcePlane` makes co-tenancy
  physical, so an overcommitted node degrades its tenants emergently,
  and the :class:`~repro.kubesim.controllers.HorizontalAutoscaler`
  reacts to (or thrashes on, or exhausts node capacity chasing) real
  demand — the timeline is empty and the machines are the incident.

A scenario is a *value*: one frozen :class:`Scenario` record says what is
hosted, what unfolds and what the right answer is, and one
:class:`ScenarioProblem` interprets any record.  The hand-written catalog
is the :data:`SCENARIOS` table below — adding a scenario is adding a row —
and :mod:`repro.problems.generator` composes further records procedurally.
Scenarios span both applications (HotelReservation and SocialNetwork),
singly and co-hosted.  They are registered behind
:func:`repro.problems.scenario_pids` and are *not* part of
:func:`~repro.problems.benchmark_pids`, so the paper-faithful 48-problem
set is untouched.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.apps import HotelReservation, SocialNetwork
from repro.core.env import FIDELITY_TIERS, AppSpec, CloudEnvironment
from repro.core.problem import (
    DetectionTask,
    LocalizationTask,
    MitigationTask,
    Problem,
)
from repro.faults.schedule import ArmedSchedule, FaultSchedule
from repro.faults.triggers import MetricAbove
from repro.kubesim import HpaPolicy, NodeSpec
from repro.workload.policies import BurstRate, SpikeRate

#: the two hosted namespaces, named once (multi-app scenario wiring)
HOTEL_NS = HotelReservation.namespace
SOCIAL_NS = SocialNetwork.namespace


@dataclass(frozen=True)
class Scenario:
    """One scenario, stated once: the ⟨T, C, S⟩ tuple as data.

    ``task`` is a key of :data:`~repro.core.problem.TASK_CLASSES`.
    ``apps`` are the hosted applications, first = the primary app the task
    is graded on (its ``workload_rate`` is the scenario's nominal rate); a
    timeline entry or metric trigger may name any hosted namespace.
    ``target`` is the service ground truth points at, ``expected`` the
    detection answer (``None`` on other tasks).  ``timeline`` is armed at
    injection time — it is never mutated, so every problem built from the
    record shares it — and the resource-plane fields mirror the
    :class:`~repro.core.env.CloudEnvironment` parameters of the same name.
    ``doc`` is the scenario's explanation and timing rationale.
    """

    pid: str
    task: str
    apps: tuple[AppSpec, ...]
    target: str
    expected: Optional[str] = None
    fidelity: str = "per_request"
    timeline: FaultSchedule = field(default_factory=FaultSchedule)
    resource_coupling: bool = False
    node_specs: Optional[tuple[NodeSpec, ...]] = None
    autoscale: Optional[tuple[HpaPolicy, ...]] = None
    doc: str = ""

    def __post_init__(self) -> None:
        if self.fidelity not in FIDELITY_TIERS:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_TIERS}, "
                f"got {self.fidelity!r}")
        object.__setattr__(self, "doc", inspect.cleandoc(self.doc))

    def problem(self) -> "ScenarioProblem":
        """A fresh problem instance (problems are single-use)."""
        return _PROBLEM_CLASSES[self.task](self)


class ScenarioProblem(Problem):
    """The one interpreter of :class:`Scenario` records.

    Arming the record's timeline replaces the immediate injection of the
    base class; the armed schedule is kept so teardown can cancel what
    hasn't fired and recover what has.  ``fidelity`` stays assignable per
    instance (the grading-agreement tests run every scenario family at
    both execution tiers).

    The agent's problem description leads with the primary app (existing
    scaffolds parse the first ``namespace "..."`` they see) and then
    introduces the co-hosted neighbors, whose namespaces the ACI and
    kubectl can inspect too.
    """

    def __init__(self, scenario: Scenario) -> None:
        super().__init__(None, target=scenario.target or None,
                         app_name=scenario.apps[0].app_cls.__name__,
                         pid=scenario.pid)
        if scenario.expected is not None:
            self.ans = scenario.expected
        self.scenario = scenario
        self.fidelity = scenario.fidelity
        self.workload_rate = scenario.apps[0].workload_rate
        self.armed: Optional[ArmedSchedule] = None

    def create_environment(self, seed: int = 0) -> CloudEnvironment:
        s = self.scenario
        return CloudEnvironment(s.apps, seed=seed, fidelity=self.fidelity,
                                resource_coupling=s.resource_coupling,
                                node_specs=s.node_specs,
                                autoscale=s.autoscale)

    def inject_fault(self, env: CloudEnvironment) -> None:
        """Arm the timeline and soak; later entries fire mid-session."""
        self.armed = self.scenario.timeline.arm(env)
        self.injected_at = env.clock.now
        env.advance(self.fault_soak_seconds)

    def recover_fault(self, env: CloudEnvironment) -> None:
        """Oracle teardown: stop the timeline, undo live injections."""
        if self.armed is not None:
            self.armed.cancel_pending()
            self.armed.recover_all()

    def problem_description(self, env: CloudEnvironment) -> str:
        desc = super().problem_description(env)
        neighbors = env.apps[1:]
        if not neighbors:
            return desc
        extra = "\n".join(
            f"A second application ({a.name}) is co-hosted on the same "
            f'cluster in namespace "{a.namespace}" '
            f"(services: {', '.join(sorted(a.services))})."
            for a in neighbors)
        head, sep, tail = desc.partition("Task: ")
        return f"{head}{extra}\n{sep}{tail}" if sep else f"{desc}\n{extra}"


class ScenarioDetection(ScenarioProblem, DetectionTask):
    """Level 1: the record's ``expected`` says whether it is an incident."""


class ScenarioLocalization(ScenarioProblem, LocalizationTask):
    """Level 2: ground truth is the record's ``target``."""


class ScenarioMitigation(ScenarioProblem, MitigationTask):
    """Level 4: graded by the whole-system health check."""


_PROBLEM_CLASSES = {cls.task_type: cls for cls in (
    ScenarioDetection, ScenarioLocalization, ScenarioMitigation)}


# ---------------------------------------------------------------------------
# The hand-written catalog.  Rows with a high-rate or re-tuned variant are
# named so the variant can be a ``replace`` of them.
# ---------------------------------------------------------------------------

_HOTEL = (AppSpec(HotelReservation),)
_SOCIAL = (AppSpec(SocialNetwork),)

_DELAYED_REVOKE_AUTH = Scenario(
    pid="delayed_revoke_auth_hotel_res-detection-1", task="detection",
    apps=_HOTEL, target="mongodb-geo", expected="yes",
    timeline=FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",), 40.0),
    doc="""Healthy at session start; MongoDB auth is revoked mid-session.

    The soak covers 30s of the 40s onset delay, so the fault lands ~10
    virtual seconds into the agent's investigation — an agent that probes
    once and answers early reports a false "no".
    """)

_CASCADE_GEO_OUTAGE = Scenario(
    pid="cascade_geo_outage_hotel_res-localization-1", task="localization",
    apps=_HOTEL, target="mongodb-geo",
    timeline=FaultSchedule.cascade([
        (10.0, "RevokeAuth", ("mongodb-geo",)),
        (50.0, "PodFailure", ("recommendation",)),
    ]),
    doc="""A two-stage outage: geo's database auth is revoked first, then the
    recommendation pods fail while the agent is diagnosing.  Ground truth
    is the *root* of the cascade (mongodb-geo).
    """)

_NOISY_NEIGHBOR = Scenario(
    pid="noisy_neighbor_multi_hotel_res-detection-1", task="detection",
    apps=(AppSpec(HotelReservation),
          AppSpec(SocialNetwork, policy=BurstRate(
              base=40.0, burst_factor=5.0, interval=45.0,
              burst_duration=15.0))),
    target="search", expected="yes",
    timeline=FaultSchedule.load_triggered(
        MetricAbove("nginx-web-server", "request_rate", 150.0,
                    namespace=SOCIAL_NS),
        "NetworkLoss", ("search",), namespace=HOTEL_NS),
    doc="""HotelReservation (under test) shares the environment with a bursty
    SocialNetwork neighbor.  When the neighbor's storm pushes its frontend
    past the storm threshold (150 req/s), packet loss lands on the *hotel*
    search path — interference from a co-tenant, not a fault of the app
    itself.

    Timing: the neighbor bursts on a 45 s cycle ([0, 15), [45, 60), ...);
    the watch arms at t=30 (after warmup), so the first satisfying scrape
    is t=50 — the interference is live before the agent engages at t=60.
    """)

_HPA_SPIKE_RECOVERY = Scenario(
    pid="hpa_spike_recovery_hotel_res-detection-1", task="detection",
    apps=(AppSpec(HotelReservation, policy=SpikeRate(
        base=60.0, spike_factor=3.0, at=40.0, duration=40.0)),),
    target="frontend", expected="no",
    autoscale=(HpaPolicy(
        namespace=HOTEL_NS, deployment="frontend", target_utilization=0.5,
        max_replicas=5, scale_down_stabilization_s=30.0),),
    doc="""A traffic spike the autoscaler absorbs: the hotel frontend's HPA
    (target 50 % of its 200 m request) sees the 3× spike land at t=40,
    scales 1 → 3 replicas within a rollup or two, then — after the spike
    ends and utilization stays low through the stabilization window —
    scales back down to 1 mid-session.  No fault, no degradation the
    system didn't handle: detection ground truth is "no", and the
    ``SuccessfulRescale`` events are the breadcrumbs a careful agent reads
    to conclude the excitement is over.
    """)

#: the catalog, in presentation order
SCENARIOS: tuple[Scenario, ...] = (
    # -- HotelReservation: time-triggered shapes (the original five that
    #    shipped with the FaultSchedule timeline layer) ---------------------
    _DELAYED_REVOKE_AUTH,
    Scenario(
        pid="flapping_network_loss_hotel_res-detection-1", task="detection",
        apps=_HOTEL, target="search", expected="yes",
        timeline=FaultSchedule.flapping(
            "NetworkLoss", ("search",), start=5.0, period=30.0, on_for=15.0,
            cycles=6),
        doc="Intermittent packet loss on the search path: 15s on, 15s off."),
    Scenario(
        pid="flapping_pod_failure_hotel_res-localization-1",
        task="localization", apps=_HOTEL, target="recommendation",
        timeline=FaultSchedule.flapping(
            "PodFailure", ("recommendation",), start=10.0, period=40.0,
            on_for=20.0, cycles=5),
        doc="The recommendation pods crash-loop in bursts; localize the "
            "service."),
    _CASCADE_GEO_OUTAGE,
    Scenario(
        pid="surge_revoke_auth_hotel_res-mitigation-1", task="mitigation",
        apps=_HOTEL, target="mongodb-profile",
        timeline=(FaultSchedule()
                  .set_rate(5.0, BurstRate(base=60.0, burst_factor=3.0,
                                           interval=120.0,
                                           burst_duration=30.0))
                  .inject(20.0, "RevokeAuth", ("mongodb-profile",))),
        doc="""A marketing-burst traffic surge begins just before profile's
        database auth is revoked; the agent must repair the system while the
        burst policy drives 3× load waves.

        The burst factor is chosen so the peak (180 rps) stays under the
        driver's ``max_requests_per_tick`` cap — the offered load is actually
        delivered, not clipped.
        """),
    # -- HotelReservation: condition-triggered, chained, high-rate ----------
    Scenario(
        pid="load_triggered_network_loss_hotel_res-detection-1",
        task="detection",
        apps=(AppSpec(HotelReservation, policy=BurstRate(
            base=60.0, burst_factor=3.0, interval=45.0,
            burst_duration=15.0)),),
        target="search", expected="yes",
        timeline=FaultSchedule.load_triggered(
            MetricAbove("frontend", "request_rate", 90.0),
            "NetworkLoss", ("search",)),
        doc="""The fault fires *because* the system is loaded: recurring traffic
        bursts (3× every 45s) push the frontend's request rate past 90 req/s,
        and only then does packet loss land on the search path — closed-loop
        symptom/fault interaction, not a wall-clock appointment.

        Timing: bursts run [0,15), [45,60), ... and the watch is armed at
        t=30 (after warmup), so the first satisfying scrape is t=50 — the
        fault is live before the agent is engaged at t=60.
        """),
    Scenario(
        pid="error_cascade_hotel_res-localization-1", task="localization",
        apps=_HOTEL, target="mongodb-geo",
        timeline=(FaultSchedule()
                  .inject(10.0, "RevokeAuth", ("mongodb-geo",), tag="root")
                  .when(MetricAbove("frontend", "error_rate", 2.0,
                                    sustain_s=10.0),
                        "PodFailure", ("recommendation",))),
        doc="""A degradation-conditioned cascade: geo's auth is revoked on a
        timer, and once the frontend's error rate has stayed above 2 err/s
        for 10 sustained seconds, the recommendation pods fail too — the
        second fault fires because the system is already degraded.  Ground
        truth is the cascade root (mongodb-geo).
        """),
    Scenario(
        pid="chained_loss_relapse_hotel_res-detection-1", task="detection",
        apps=_HOTEL, target="search", expected="yes",
        timeline=(FaultSchedule()
                  .inject(15.0, "NetworkLoss", ("search",), tag="loss")
                  .after("loss", "NetworkLoss", ("search",), delay=25.0,
                         kind="recover", new_tag="healed")
                  .after("healed", "NetworkLoss", ("search",), delay=20.0)),
        doc="""An incident with a relapse, expressed as an event chain: packet
        loss lands at t=15, heals 25s after it landed, then relapses 20s
        after the healing — each stage anchored to the previous stage's
        *firing*, not to wall-clock guesses.
        """),
    replace(
        _DELAYED_REVOKE_AUTH,
        pid="highrate_revoke_auth_hotel_res-detection-1",
        apps=(AppSpec(HotelReservation, workload_rate=1000.0),),
        fidelity="aggregate",
        doc="""The delayed-onset scenario at 1000 rps on the aggregate tier —
        "millions of users" scale, same timeline, same grading.
        """),
    replace(
        _CASCADE_GEO_OUTAGE,
        pid="highrate_cascade_hotel_res-localization-1",
        apps=(AppSpec(HotelReservation, workload_rate=2000.0),),
        fidelity="aggregate",
        doc="The geo cascade at 2000 rps on the aggregate tier."),
    # -- SocialNetwork --------------------------------------------------------
    Scenario(
        pid="delayed_scale_zero_social_net-detection-1", task="detection",
        apps=_SOCIAL, target="compose-post-service", expected="yes",
        timeline=FaultSchedule.delayed(
            "ScalePod", ("compose-post-service",), 40.0),
        doc="""SocialNetwork is healthy at session start; compose-post is scaled
        to zero pods 40s in (10s into the agent's investigation).
        """),
    Scenario(
        pid="flapping_misconfig_social_net-detection-1", task="detection",
        apps=_SOCIAL, target="user-service", expected="yes",
        timeline=FaultSchedule.flapping(
            "TargetPortMisconfig", ("user-service",), start=5.0, period=30.0,
            on_for=15.0, cycles=6),
        doc="""user-service's target port flips between broken and fixed — the
        paper's TargetPortMisconfig as an intermittent incident.
        """),
    Scenario(
        pid="cascade_social_outage_social_net-localization-1",
        task="localization", apps=_SOCIAL, target="user-service",
        timeline=FaultSchedule.cascade([
            (10.0, "TargetPortMisconfig", ("user-service",)),
            (50.0, "ScalePod", ("compose-post-service",)),
        ]),
        doc="""A SocialNetwork cascade: user-service's port is misconfigured
        first, then compose-post is scaled to zero mid-diagnosis.  Ground
        truth is the root (user-service).
        """),
    Scenario(
        pid="load_triggered_scale_zero_social_net-localization-1",
        task="localization",
        apps=(AppSpec(SocialNetwork, policy=SpikeRate(
            base=60.0, spike_factor=4.0, at=45.0, duration=30.0)),),
        target="compose-post-service",
        timeline=FaultSchedule.load_triggered(
            MetricAbove("nginx-web-server", "request_rate", 90.0),
            "ScalePod", ("compose-post-service",)),
        doc="""A one-off traffic spike (4× at t=45) trips a request-rate watch on
        the SocialNetwork frontend, and the overload "takes down" compose-post
        (scaled to zero) — localize the service that failed under load.
        """),
    Scenario(
        pid="highrate_misconfig_social_net-detection-1", task="detection",
        apps=(AppSpec(SocialNetwork, workload_rate=1500.0),),
        target="post-storage-service", expected="yes", fidelity="aggregate",
        timeline=FaultSchedule.delayed(
            "TargetPortMisconfig", ("post-storage-service",), 20.0),
        doc="""SocialNetwork at 1500 rps on the aggregate tier; post-storage's
        target port breaks 20s after arming.
        """),
    # -- multi-app: two namespaces, one environment, cross-app triggers -----
    _NOISY_NEIGHBOR,
    Scenario(
        pid="shared_backend_cascade_multi_hotel_res-localization-1",
        task="localization",
        apps=(AppSpec(HotelReservation),
              AppSpec(SocialNetwork, policy=BurstRate(
                  base=50.0, burst_factor=4.0, interval=45.0,
                  burst_duration=15.0))),
        target="mongodb-rate",
        timeline=(FaultSchedule()
                  .when(MetricAbove("post-storage-service", "request_rate",
                                    100.0, namespace=SOCIAL_NS),
                        "RevokeAuth", ("mongodb-rate",), namespace=HOTEL_NS,
                        tag="contention")
                  .after("contention", "PodFailure", ("recommendation",),
                         delay=30.0, namespace=HOTEL_NS)),
        doc="""A cross-app cascade through shared backend infrastructure: the
        co-hosted SocialNetwork's read storm saturates its post-storage path,
        and — both tenants' databases living on the same simulated backend
        tier — HotelReservation's rate database locks clients out
        (RevokeAuth as the contention stand-in), then the recommendation pods
        fail 30 s after the lockout.  Ground truth is the *hotel-side* root
        of the cascade (mongodb-rate); the trigger lives entirely in the
        neighbor's namespace.  The neighbor's storm cycle puts the first
        satisfying scrape at t=50 (lockout live before the agent engages) and
        the pod failure at t=80, mid-session.
        """),
    Scenario(
        pid="cross_app_remediation_multi_social_net-detection-1",
        task="detection",
        apps=(AppSpec(SocialNetwork),
              AppSpec(HotelReservation, policy=BurstRate(
                  base=40.0, burst_factor=4.0, interval=45.0,
                  burst_duration=15.0))),
        target="compose-post-service", expected="yes",
        timeline=(FaultSchedule
                  .every_crossing(
                      MetricAbove("frontend", "request_rate", 120.0,
                                  namespace=HOTEL_NS),
                      "NetworkLoss", ("compose-post-service",),
                      namespace=SOCIAL_NS, tag="interference")
                  .when(MetricAbove("nginx-web-server", "error_rate", 0.5,
                                    sustain_s=5.0, namespace=SOCIAL_NS),
                        "NetworkLoss", ("compose-post-service",),
                        kind="recover", namespace=SOCIAL_NS, repeat=0)),
        doc="""The auto-remediation loop — the first schedule built on repeating
        triggers (:meth:`FaultSchedule.every_crossing`, which re-arms its
        :class:`~repro.telemetry.watch.MetricWatch` after every firing):

        * every time the co-hosted HotelReservation neighbor's burst pushes
          its frontend past 120 req/s, packet loss lands on SocialNetwork's
          compose path (cross-app interference, once per storm *crossing*);
        * every time SocialNetwork's frontend error rate then exceeds
          0.5 err/s *sustained for 5 s*, the loss is recovered
          (telemetry-driven remediation) — so the incident flaps in lockstep
          with the neighbor's load, and both watches keep re-arming for the
          whole session (first episode ≈ [50, 60], then once per 45 s storm).

        The agent sees a system that degrades and self-heals repeatedly;
        detection ground truth is "yes".
        """),
    replace(
        _NOISY_NEIGHBOR,
        pid="highrate_noisy_neighbor_multi_hotel_res-detection-1",
        apps=(AppSpec(HotelReservation, workload_rate=1000.0),
              AppSpec(SocialNetwork, policy=BurstRate(
                  base=400.0, burst_factor=5.0, interval=45.0,
                  burst_duration=15.0))),
        fidelity="aggregate",
        timeline=FaultSchedule.load_triggered(
            MetricAbove("nginx-web-server", "request_rate", 1500.0,
                        namespace=SOCIAL_NS),
            "NetworkLoss", ("search",), namespace=HOTEL_NS),
        doc="""The noisy-neighbor scenario at 1000 rps (plus a 400→2000 rps
        bursting neighbor) on the aggregate execution tier — both apps'
        drivers batch through ``execute_many`` on the shared queue, and the
        cross-app trigger still lands within one scrape interval of the
        per-request tier.
        """),
    # -- resource plane: node capacity, emergent contention, autoscaling.
    #    None of these injects a fault — the timeline is empty and the
    #    incident (or its absence) emerges from demand meeting finite
    #    machines ------------------------------------------------------------
    Scenario(
        pid="emergent_contention_multi_hotel_res-detection-1",
        task="detection",
        apps=(AppSpec(HotelReservation),
              AppSpec(SocialNetwork, policy=BurstRate(
                  base=150.0, burst_factor=4.0, interval=45.0,
                  burst_duration=15.0), fidelity="aggregate")),
        target="frontend", expected="yes", resource_coupling=True,
        node_specs=(NodeSpec("node-0", cpu_capacity=8000.0),),
        doc="""Noisy neighbor from first principles: both applications share one
        deliberately small node with ``resource_coupling=True`` and **no fault
        is ever injected**.  When the co-hosted SocialNetwork's storm (an
        aggregate-tier burst policy) pushes the node past the resource plane's
        70 % pressure knee, *every* co-located pod — the hotel frontend
        included — sees its latency inflate, and past 90 % the node sheds
        hotel RPCs with ``ResourceExhausted``.  Between storms the node cools
        below the knee and the hotel is healthy again.  Detection ground truth
        is "yes": the interference is real, even though ``kubectl describe``
        of every hotel object looks clean — only ``kubectl top nodes`` and the
        co-tenant's traffic give it away.
        """),
    _HPA_SPIKE_RECOVERY,
    replace(
        _HPA_SPIKE_RECOVERY,
        pid="autoscaler_thrash_hotel_res-detection-1", expected="yes",
        apps=(AppSpec(HotelReservation, policy=BurstRate(
            base=60.0, burst_factor=3.0, interval=40.0,
            burst_duration=15.0)),),
        autoscale=(replace(_HPA_SPIKE_RECOVERY.autoscale[0],
                           scale_down_stabilization_s=10.0),),
        doc="""A misconfigured autoscaler as the incident: the stabilization
        window is shorter than the workload's burst cycle, so every burst
        scales the frontend up and every trough scales it straight back down
        — the deployment's replica count flaps for the whole session (a
        stream of ``SuccessfulRescale`` events alternating direction).
        Detection ground truth is "yes": replica thrash *is* the operational
        anomaly, even though each individual scaling decision looks locally
        reasonable.
        """),
    Scenario(
        pid="capacity_exhaustion_hotel_res-localization-1",
        task="localization",
        apps=(AppSpec(HotelReservation, policy=SpikeRate(
            base=60.0, spike_factor=3.0, at=40.0, duration=150.0)),),
        target="frontend",
        node_specs=(NodeSpec("node-0", cpu_capacity=3000.0),),
        autoscale=(HpaPolicy(
            namespace=HOTEL_NS, deployment="frontend",
            target_utilization=0.5, max_replicas=5),),
        doc="""The autoscaler runs out of machine: a long 3× spike drives the
        frontend's HPA to want 3 replicas, but the single node was sized with
        barely any headroom over the chart's aggregate CPU requests — the
        second new pod finds ``Insufficient cpu`` and stays ``Pending``
        (a ``FailedScheduling`` event) for as long as the spike lasts.
        Localize the service whose pods are stuck: the frontend.
        """),
    Scenario(
        pid="scale_up_race_multi_hotel_res-detection-1", task="detection",
        apps=(AppSpec(HotelReservation, policy=SpikeRate(
                  base=60.0, spike_factor=3.0, at=40.0, duration=90.0)),
              AppSpec(SocialNetwork, policy=BurstRate(
                  base=60.0, burst_factor=3.0, interval=45.0,
                  burst_duration=20.0))),
        target="frontend", expected="yes", resource_coupling=True,
        node_specs=(NodeSpec("node-0", cpu_capacity=7000.0),),
        autoscale=(
            HpaPolicy(namespace=HOTEL_NS, deployment="frontend",
                      target_utilization=0.5, max_replicas=4),
            HpaPolicy(namespace=SOCIAL_NS, deployment="nginx-web-server",
                      target_utilization=0.5, max_replicas=4),
        ),
        doc="""Two autoscalers race for one node's remaining capacity: both
        tenants' frontends have HPAs, both see load rise at once (the hotel's
        spike and the neighbor's burst overlap), and the node's headroom only
        fits part of the combined scale-up — whichever rollup asks second
        leaves pods ``Pending`` with ``Insufficient cpu``.  With coupling on,
        the combined demand also pushes the node through the pressure knee
        while the race is unresolved.  Detection ground truth is "yes".
        """),
)

"""Procedural scenario synthesis: a seeded generator over the template space.

The hand-written scenario pool is two dozen rows; this module turns
scenario diversity into a *dimension of scale* by composing valid,
gradable :class:`~repro.problems.scenarios.Scenario` records — run by the
same :class:`~repro.problems.scenarios.ScenarioProblem` as the
hand-written rows — from the axes that table samples by hand:

* **hosted app set** — 1–3 applications (the primary app under test plus
  co-tenant neighbors, including second-tenant clones of the stock apps
  so three namespaces can share one environment);
* **fault family** — any injectable row of
  :data:`~repro.faults.library.FAULT_LIBRARY` eligible for the primary
  app and the task level;
* **trigger shape** — fixed-time onsets (:class:`~repro.faults.triggers.AtTime`
  via the delayed/flapping/cascade shapes), telemetry thresholds
  (:class:`~repro.faults.triggers.MetricAbove` with sustain windows),
  event chains (:class:`~repro.faults.triggers.AfterEvent` relapse
  loops) and repeating crossings
  (:meth:`~repro.faults.schedule.FaultSchedule.every_crossing`);
* **rate policy** — :class:`~repro.workload.policies.ConstantRate` /
  :class:`~repro.workload.policies.BurstRate` /
  :class:`~repro.workload.policies.SpikeRate` /
  :class:`~repro.workload.policies.DiurnalRate`;
* **fidelity tier** — ``per_request`` (rates sized under the driver's
  per-tick cap) or ``aggregate`` (high-rate variants);
* **task type** — detection / localization / mitigation.

Grading specs are *derived from the composed timeline*, not hand-written:
a detection problem expects ``"yes"`` exactly when its timeline injects a
fault (the ``quiet`` shape composes an empty timeline and expects
``"no"``), a localization problem's ground truth is the root inject's
target service, and mitigation problems are graded by the existing
whole-system health check.  Metric thresholds are derived from the
watched driver's known rate policy (midway between base and peak), so a
condition-triggered timeline is guaranteed to actually cross its
threshold — validity by construction, certified by the property suite in
``tests/problems/test_generator.py``.

Everything is deterministic in ``(seed, index)``: the recipe for problem
``i`` of generator seed ``s`` is drawn from a dedicated
``random.Random(f"scenario-gen:{s}:{i}")`` stream (string seeding is
hash-randomization-free), and the pid embeds ``(s, i)`` so
:func:`~repro.problems.get_problem` can rebuild any generated problem
from its pid alone — no registry ever needs to be shipped anywhere.

Pid grammar (shared with the hand-written pools, see
:func:`repro.problems.split_pid`)::

    pid            := stem "-" task "-" index
    stem           := [a-z0-9_]+          (never contains "-")
    task           := detection | localization | analysis | mitigation
    index          := [0-9]+
    generated stem := "gen" SEED "x" ORDINAL "_" shape "_" fault "_" app

e.g. ``gen0x0017_metric_network_loss_hotel_res-detection-1`` is problem
17 of generator seed 0.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.apps import APP_CLASSES
from repro.core.env import AppSpec
from repro.faults.library import FAULT_LIBRARY, FaultSpec
from repro.faults.schedule import FaultSchedule
from repro.faults.triggers import MetricAbove
from repro.problems.scenarios import Scenario, ScenarioProblem
from repro.workload.policies import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
    RatePolicy,
    SpikeRate,
)


#: primary app -> clone key (a primary is always a stock app)
_CLONE_OF = {
    "HotelReservation": "HotelReservationTenantB",
    "SocialNetwork": "SocialNetworkTenantB",
}

_OTHER = {
    "HotelReservation": "SocialNetwork",
    "SocialNetwork": "HotelReservation",
}

#: trigger-shape axis, cycled by index so every pool of >= 7 problems
#: covers all of them (parameters within a shape stay rng-sampled)
SHAPES = ("delayed", "flapping", "cascade", "metric", "chain",
          "crossing", "quiet")

#: rate-policy axis
POLICIES = ("constant", "burst", "spike", "diurnal")

#: tasks each shape can instantiate.  Mitigation pairs with the delayed
#: shape only: a flapping/repeating timeline would re-break the system
#: after the agent repairs it, making the health-check grade a race.
_TASKS_BY_SHAPE = {
    "delayed": ("detection", "localization", "mitigation"),
    "flapping": ("detection", "localization"),
    "cascade": ("detection", "localization"),
    "metric": ("detection", "localization"),
    "chain": ("detection", "localization"),
    "crossing": ("detection",),
    "quiet": ("detection",),
}

_TASK_LEVEL = {"detection": 1, "localization": 2, "mitigation": 4}

#: scrape cadence the sustain windows are sized against
_SCRAPE_S = 5.0

_GEN_PID_RE = re.compile(r"^gen(\d+)x(\d+)_")


def _eligible_faults(app_name: str, task: str) -> list[FaultSpec]:
    """Injectable fault families for ``app_name`` at ``task``'s level."""
    level = _TASK_LEVEL[task]
    return [s for s in FAULT_LIBRARY
            if s.injector != "none" and s.application == app_name
            and level in s.task_levels and s.targets.get(app_name)]


@dataclass(frozen=True)
class GeneratedSpec:
    """The full recipe for one generated problem — primitives only, so a
    spec is picklable, hashable and byte-comparable.  ``policy_params`` /
    ``trigger_params`` are shape-specific (see :func:`build_policy` and
    :func:`build_schedule_for`); ``neighbors`` holds
    ``(app_key, policy_kind, *policy_params)`` tuples for co-tenants."""

    pid: str
    gen_seed: int
    index: int
    task: str
    shape: str
    app_name: str
    neighbors: tuple[tuple, ...]
    fault: str                     # fault_key; "" for the quiet shape
    target: str                    # "" for the quiet shape
    extra_fault: str = ""          # cascade second stage
    extra_target: str = ""
    policy: str = "constant"
    policy_params: tuple[float, ...] = ()
    fidelity: str = "per_request"
    rate: float = 60.0
    trigger_params: tuple[float, ...] = ()
    watch_service: str = ""        # metric/crossing shapes
    watch_namespace: str = ""
    expected: str = ""             # detection ground truth ("yes"/"no")


def build_policy(kind: str, params: Sequence[float]) -> RatePolicy:
    """Rebuild a rate policy from its spec encoding."""
    p = tuple(params)
    if kind == "constant":
        return ConstantRate(p[0])
    if kind == "burst":
        return BurstRate(base=p[0], burst_factor=p[1], interval=p[2],
                         burst_duration=p[3])
    if kind == "spike":
        return SpikeRate(base=p[0], spike_factor=p[1], at=p[2],
                         duration=p[3])
    if kind == "diurnal":
        return DiurnalRate(base=p[0], amplitude=p[1], period=p[2])
    raise ValueError(f"unknown rate-policy kind {kind!r}")


def build_schedule_for(spec: GeneratedSpec) -> FaultSchedule:
    """Compose ``spec``'s fault timeline (pure function of the spec).

    Entries act on the primary app (``namespace=""``); metric triggers
    always carry an explicit watched namespace, so a clone tenant hosting
    the same service names can never make resolution ambiguous."""
    sched = FaultSchedule()
    tp = spec.trigger_params
    if spec.shape == "quiet":
        return sched
    if spec.shape == "delayed":
        sched.inject(tp[0], spec.fault, (spec.target,))
    elif spec.shape == "flapping":
        start, period, on_for, cycles = tp
        for k in range(int(cycles)):
            t0 = round(start + k * period, 1)
            sched.inject(t0, spec.fault, (spec.target,))
            sched.recover(round(t0 + on_for, 1), spec.fault, (spec.target,))
    elif spec.shape == "cascade":
        sched.inject(tp[0], spec.fault, (spec.target,), tag="root")
        sched.inject(tp[1], spec.extra_fault, (spec.extra_target,))
    elif spec.shape == "metric":
        threshold, sustain = tp
        sched.when(
            MetricAbove(spec.watch_service, "request_rate", threshold,
                        sustain_s=sustain, namespace=spec.watch_namespace),
            spec.fault, (spec.target,))
    elif spec.shape == "chain":
        t0, d1, d2 = tp
        (sched.inject(t0, spec.fault, (spec.target,), tag="root")
              .after("root", spec.fault, (spec.target,), delay=d1,
                     kind="recover", new_tag="healed")
              .after("healed", spec.fault, (spec.target,), delay=d2))
    elif spec.shape == "crossing":
        threshold, max_fires = tp
        sched.when(
            MetricAbove(spec.watch_service, "request_rate", threshold,
                        namespace=spec.watch_namespace),
            spec.fault, (spec.target,), repeat=int(max_fires))
    else:  # pragma: no cover - _compose only emits known shapes
        raise ValueError(f"unknown shape {spec.shape!r}")
    return sched


def describe_timeline(spec: GeneratedSpec) -> list[str]:
    """The timeline as stable strings — the byte-identity surface the
    determinism property pins (and the docs catalog renders)."""
    return [f"{e.trigger.describe()}: {e.describe()}"
            for e in build_schedule_for(spec).entries]


def scenario_for(spec: GeneratedSpec) -> Scenario:
    """The recipe as the record :class:`ScenarioProblem` runs: primary app
    first, then the co-tenants, all driven purely by ``spec``."""
    apps = [AppSpec(APP_CLASSES[spec.app_name], workload_rate=spec.rate,
                    policy=build_policy(spec.policy, spec.policy_params))]
    for key, kind, *params in spec.neighbors:
        apps.append(AppSpec(APP_CLASSES[key],
                            policy=build_policy(kind, params)))
    return Scenario(pid=spec.pid, task=spec.task, apps=tuple(apps),
                    target=spec.target, expected=spec.expected or None,
                    fidelity=spec.fidelity,
                    timeline=build_schedule_for(spec))


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

class ScenarioGenerator:
    """Deterministic, seeded composer of scenario problems.

    ``spec(i)`` is a pure function of ``(seed, i)`` — recomputing it (in
    any order, in any process) yields byte-identical recipes, which is
    what lets the pid embed the recipe's coordinates instead of shipping
    a registry.  ``problems are single-use`` semantics match the
    hand-written pools: :meth:`problem` returns a fresh instance each
    call.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"generator seed must be >= 0, got {seed}")
        self.seed = seed
        self._specs: dict[int, GeneratedSpec] = {}

    # -- composition ---------------------------------------------------
    def spec(self, index: int) -> GeneratedSpec:
        """The recipe for problem ``index`` (cached; pure in (seed, index))."""
        if index < 0:
            raise ValueError(f"problem index must be >= 0, got {index}")
        if index not in self._specs:
            self._specs[index] = self._compose(index)
        return self._specs[index]

    def specs(self, n: int) -> list[GeneratedSpec]:
        return [self.spec(i) for i in range(n)]

    def pids(self, n: int) -> list[str]:
        return [s.pid for s in self.specs(n)]

    def problem(self, index: int,
                fidelity: Optional[str] = None) -> ScenarioProblem:
        scenario = scenario_for(self.spec(index))
        if fidelity is not None:
            scenario = replace(scenario, fidelity=fidelity)
        return scenario.problem()

    # -- the sampler ----------------------------------------------------
    def _compose(self, index: int) -> GeneratedSpec:
        rng = random.Random(f"scenario-gen:{self.seed}:{index}")
        shape = SHAPES[index % len(SHAPES)]
        task = rng.choice(_TASKS_BY_SHAPE[shape])
        primary = rng.choice(("HotelReservation", "SocialNetwork"))
        fidelity = "aggregate" if rng.random() < 1.0 / 3.0 else "per_request"
        # the condition-triggered shapes need a bursty driver to cross
        # their derived threshold; everything else roams the policy axis
        if shape in ("metric", "crossing"):
            n_apps = rng.choices((1, 2, 3), weights=(4, 4, 2))[0]
        else:
            n_apps = rng.choices((1, 2, 3), weights=(5, 3, 2))[0]
        neighbors = self._neighbors(rng, primary, n_apps - 1, fidelity)

        if shape in ("metric", "crossing") and not neighbors:
            policy = "burst" if shape == "crossing" \
                else rng.choice(("burst", "spike"))
        elif shape in ("metric", "crossing"):
            policy = rng.choice(POLICIES)
        else:
            policy = rng.choice(POLICIES)
        rate, policy_params = self._policy_params(rng, policy, fidelity)

        fault = target = extra_fault = extra_target = ""
        expected = ""
        if shape != "quiet":
            fault_spec = rng.choice(_eligible_faults(primary, task))
            fault = fault_spec.fault_key
            target = rng.choice(fault_spec.targets[primary])
        if task == "detection":
            expected = "no" if shape == "quiet" else "yes"
        if shape == "cascade":
            others = [s for s in _eligible_faults(primary, "detection")
                      if s.fault_key != fault]
            extra = rng.choice(others)
            extra_fault = extra.fault_key
            extra_target = rng.choice(extra.targets[primary])

        trigger_params, watch_service, watch_ns = self._trigger_params(
            rng, shape, task, primary, neighbors, policy, policy_params)

        stem_fault = fault or "noop"
        pid = (f"gen{self.seed}x{index:04d}_{shape}_{stem_fault}"
               f"_{APP_CLASSES[primary].short_name}-{task}-1")
        return GeneratedSpec(
            pid=pid, gen_seed=self.seed, index=index, task=task,
            shape=shape, app_name=primary, neighbors=neighbors,
            fault=fault, target=target, extra_fault=extra_fault,
            extra_target=extra_target, policy=policy,
            policy_params=policy_params, fidelity=fidelity, rate=rate,
            trigger_params=trigger_params, watch_service=watch_service,
            watch_namespace=watch_ns, expected=expected,
        )

    @staticmethod
    def _neighbors(rng: random.Random, primary: str, count: int,
                   fidelity: str) -> tuple[tuple, ...]:
        """Co-tenant specs: always bursty (they exist to make noise),
        sized for the fidelity tier.  Candidates keep namespaces
        distinct: the other stock app, its clone, the primary's clone."""
        other = _OTHER[primary]
        candidates = [other, _CLONE_OF[other], _CLONE_OF[primary]]
        chosen = rng.sample(candidates, min(count, len(candidates)))
        out = []
        for key in chosen:
            base = (round(rng.uniform(20.0, 40.0), 1)
                    if fidelity == "per_request"
                    else round(rng.uniform(200.0, 400.0), 1))
            factor = rng.choice((3.0, 4.0))
            out.append((key, "burst", base, factor, 45.0, 15.0))
        return tuple(out)

    @staticmethod
    def _policy_params(rng: random.Random, policy: str,
                       fidelity: str) -> tuple[float, tuple[float, ...]]:
        """Primary-driver rate policy parameters.  Per-request peaks stay
        under the driver's 200 req/tick cap (base <= 60, factor <= 3);
        aggregate variants run the batched tier at 300–1200 rps base."""
        if fidelity == "per_request":
            base = round(rng.uniform(20.0, 60.0), 1)
            factor = rng.choice((2.0, 3.0))
        else:
            base = round(rng.uniform(300.0, 1200.0), 1)
            factor = rng.choice((2.0, 3.0, 4.0))
        if policy == "constant":
            return base, (base,)
        if policy == "burst":
            interval = rng.choice((45.0, 60.0))
            return base, (base, factor, interval, 15.0)
        if policy == "spike":
            at = rng.choice((40.0, 50.0))
            duration = rng.choice((30.0, 40.0))
            return base, (base, factor, at, duration)
        # diurnal: amplitude < 1 (never clamps), short period so several
        # day/night cycles fit in one session
        amplitude = round(rng.uniform(0.3, 0.8), 2)
        period = rng.choice((120.0, 240.0))
        return base, (base, amplitude, period)

    def _trigger_params(self, rng: random.Random, shape: str, task: str,
                        primary: str, neighbors: tuple[tuple, ...],
                        policy: str, policy_params: tuple[float, ...],
                        ) -> tuple[tuple[float, ...], str, str]:
        """Shape-specific timing/threshold parameters.

        Metric thresholds are derived midway between the watched driver's
        base and peak rate, so the composed burst/spike is *guaranteed*
        to cross them — condition-triggered timelines are valid by
        construction, never silently-never-firing."""
        if shape == "delayed":
            hi = 25.0 if task == "mitigation" else 45.0
            return (round(rng.uniform(5.0, hi), 1),), "", ""
        if shape == "flapping":
            period = rng.choice((30.0, 40.0))
            on_for = round(period * rng.uniform(0.4, 0.6), 1)
            return (round(rng.uniform(5.0, 15.0), 1), period, on_for,
                    float(rng.randint(3, 5))), "", ""
        if shape == "cascade":
            t1 = round(rng.uniform(5.0, 20.0), 1)
            return (t1, round(t1 + rng.uniform(25.0, 45.0), 1)), "", ""
        if shape == "chain":
            return (round(rng.uniform(10.0, 25.0), 1),
                    round(rng.uniform(15.0, 30.0), 1),
                    round(rng.uniform(10.0, 25.0), 1)), "", ""
        if shape in ("metric", "crossing"):
            if neighbors:
                key, _, base, factor = neighbors[0][:4]
                watch_cls = APP_CLASSES[key]
            else:
                base, factor = policy_params[0], policy_params[1]
                watch_cls = APP_CLASSES[primary]
            threshold = round(base * (1.0 + factor) / 2.0, 1)
            if shape == "metric":
                sustain = rng.choice((0.0, _SCRAPE_S))
                params = (threshold, sustain)
            else:
                params = (threshold, float(rng.choice((0, 3, 4))))
            return params, watch_cls.frontend, watch_cls.namespace
        return (), "", ""  # quiet


# ---------------------------------------------------------------------------
# Pool-level API
# ---------------------------------------------------------------------------

def generated_pool(n: int, seed: int = 0) -> list[str]:
    """``n`` generated problem pids for generator ``seed`` — fresh,
    never-hand-reviewed incident sets for sweeps.  Nothing is registered:
    :func:`repro.problems.get_problem` rebuilds any generated problem from
    the recipe its pid embeds."""
    return ScenarioGenerator(seed).pids(n)


def is_generated_pid(pid: str) -> bool:
    return _GEN_PID_RE.match(pid) is not None


def problem_for_pid(pid: str) -> ScenarioProblem:
    """Rebuild a generated problem from its pid alone.

    The pid's ``gen<seed>x<index>`` prefix names the recipe; the rest of
    the pid is re-derived and must match byte-for-byte, so a doctored pid
    can never silently resolve to a different problem."""
    m = _GEN_PID_RE.match(pid)
    if m is None:
        raise KeyError(f"not a generated problem id: {pid!r}")
    gen = ScenarioGenerator(int(m.group(1)))
    spec = gen.spec(int(m.group(2)))
    if spec.pid != pid:
        raise KeyError(
            f"generated pid {pid!r} does not match its recipe "
            f"(expected {spec.pid!r})")
    return scenario_for(spec).problem()


def template_space() -> dict[str, tuple[str, ...]]:
    """The generator's axes and their values (rendered into
    ``docs/scenarios.md`` by ``scripts/gen_docs.py``)."""
    hotel = sorted(s.name for s in _eligible_faults("HotelReservation",
                                                    "detection"))
    social = sorted(s.name for s in _eligible_faults("SocialNetwork",
                                                     "detection"))
    return {
        "task": ("detection", "localization", "mitigation"),
        "trigger shape": SHAPES,
        "primary app": ("HotelReservation", "SocialNetwork"),
        "hosted apps": ("1", "2", "3 (second-tenant clones)"),
        "fault family (HotelReservation)": tuple(hotel),
        "fault family (SocialNetwork)": tuple(social),
        "rate policy": POLICIES,
        "fidelity": ("per_request", "aggregate"),
    }

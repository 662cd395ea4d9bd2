"""The four benchmark workloads.

Each workload builds its whole op list from ``--seed`` before anything is
timed, drives only the public ``repro`` API from one thread, and repeats
the *same* op list every round: the simulator is deterministic, so round
``k`` must reproduce round 1 exactly (``checks.digest``) and op ``i`` of
every round is the same piece of work measured again.

A workload exposes ``setup()`` (timed as ``setup_s``; ends with one
warm-up op), ``begin_round()`` (untimed; the stateful workloads rebuild
their environment so every round starts from the same state),
``run_op(i)`` returning a JSON-able record that ``checks`` validates and
digests, ``end_round()`` (state folded into the digest) and ``close()``.
Why each workload exists is the ``why`` string — ``BENCHMARK.json`` and
the README repeat it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

from repro import (
    AGENT_NAMES,
    AppSpec,
    CloudEnvironment,
    HotelReservation,
    SocialNetwork,
    TaskActions,
    agent_factory,
)
from repro.bench import BenchmarkRunner
from repro.core import GridCell, SessionSpec, batch, registry_for
from repro.faults import FaultSchedule, MetricAbove, MetricBelow
from repro.workload import BurstRate, DiurnalRate

HR_DETECTION = "network_loss_hotel_res-detection-1"
HR_LOCALIZATION = "revoke_auth_hotel_res-localization-1"
SN_MITIGATION = "misconfig_k8s_social_net-mitigation-1"


AGENT_DICE = 5


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed that depends on ``--seed`` and ``label`` only."""
    digest = hashlib.sha256(f"bench_e2e:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def agent_seed(i: int) -> int:
    """The seed of op ``i``'s agent: fixed, *not* derived from ``--seed``.

    An agent's sampled action mix — above all how many ~400 ms
    ``get_traces`` exports it asks for — decides what a session costs.
    Letting it vary with ``--seed`` moved ``ops_per_s`` by 15-20 % between
    seeds on unchanged code, more than any bound this benchmark could then
    hold.  ``--seed`` still drives every environment seed (traffic,
    telemetry noise, pod names, fault draws), i.e. everything the simulator
    itself samples; the agents answer to different observations with the
    same dice.

    ``AGENT_DICE`` picks the set of seeds.  Of the first ten sets it is the
    one whose slowest session is shortest (0.73 s against up to 1.8 s): a
    long op needs an equally long quiet slice of the host for one clean
    sample, so short ops are what keeps the numbers steady.
    """
    return derive_seed(-1, f"agent:{AGENT_DICE}:{i}")


def _driver_stats(env: CloudEnvironment) -> list[dict[str, Any]]:
    return [{"requests": d.stats.requests, "errors": d.stats.errors,
             "latency_sum_ms": d.stats.latency_sum_ms,
             "per_operation": dict(d.stats.per_operation)}
            for d in env.drivers]


class Workload:
    """Base: op list, round protocol, and the warm-up convention."""

    name = ""
    why = ""
    #: percentile reported as ``op_ms_tail`` (see README: chosen so about
    #: ten pooled samples lie beyond it at the default run length)
    tail_pct = 75.0
    ops_per_round = 0
    quick_ops = 1
    #: per-layer counts that must read 0 inside this workload's ops: the
    #: layers it is built to bypass (checked after every traced pass)
    expect_zero: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.n_ops = self.quick_ops if quick else self.ops_per_round

    def setup(self) -> None:
        """Everything a user pays before the first measured op."""
        self.prepare()
        self.begin_round()
        self.run_op(0)          # warm-up: imports, registries, profile store
        self.end_round()

    def prepare(self) -> None:
        """Build the op list and any prepared state from the seed."""

    def begin_round(self) -> None:
        """Untimed: put the workload back into its round-start state."""

    def run_op(self, i: int) -> dict[str, Any]:
        raise NotImplementedError

    def end_round(self) -> dict[str, Any]:
        """Untimed: state that must also repeat exactly, for the digest."""
        return {}

    def layer_counters(self) -> dict[str, float]:
        """Per-layer counts only the workload's own state can give."""
        return {"faults.timeline_fired": 0}

    def close(self) -> None:
        """Release whatever the last round left open."""


class _FixedSeedAgent:
    """An AgentFactory that builds a registered agent with its own seed
    instead of the session's (see :func:`agent_seed`)."""

    def __init__(self, name: str, seed: int) -> None:
        self.factory = agent_factory(name)
        self.seed = seed

    def __call__(self, context, task_type: str, session_seed: int):
        return self.factory(context, task_type, self.seed)


class SuitePaper(Workload):
    name = "suite_paper"
    why = ("cold paper sessions through the batch executor run_case/run_suite "
           "use: deploy, warm-up, soak and per-step advance put most wall in "
           "the per-request walker; the paper's headline path")
    ops_per_round = 8
    expect_zero = ("services.batch_n", "core.fork_n")
    max_steps = 20
    pids = (HR_DETECTION, HR_LOCALIZATION, SN_MITIGATION)

    def prepare(self) -> None:
        # i -> (agent i mod 4, pid i mod 3): distinct pairs, every agent and
        # every task type in each round.  These are the specs
        # BenchmarkRunner.run_case builds, with the agent seed split off.
        self.specs = []
        for i in range(self.n_ops):
            agent = AGENT_NAMES[i % len(AGENT_NAMES)]
            pid = self.pids[i % len(self.pids)]
            self.specs.append(SessionSpec(
                problem=pid, agent=_FixedSeedAgent(agent, agent_seed(i)),
                agent_name=agent, max_steps=self.max_steps,
                seed=derive_seed(self.seed, f"suite-env:{agent}:{pid}")))

    def run_op(self, i: int) -> dict[str, Any]:
        [outcome] = batch.run_sessions_sync(
            [self.specs[i]], concurrency=1, fail_fast=True,
            release_handles=True)
        return {"kind": "session", "max_steps": self.max_steps,
                **outcome.result}


class GridFork(Workload):
    name = "grid_fork"
    why = ("the same agent loop from forked snapshots via run_grid_cell: no "
           "deploy, warm-up or soak, a multi-MB pickle.loads per op, so fork "
           "cost and the agent/ACI/grading path dominate")
    ops_per_round = 8
    expect_zero = ("services.batch_n", "core.env_build_n")
    #: (pid, step limit) shapes; cell i takes shape i mod 3, agent i mod 4
    shapes = ((HR_LOCALIZATION, 5), (HR_LOCALIZATION, 20), (SN_MITIGATION, 20))

    def prepare(self) -> None:
        runner = BenchmarkRunner(seed=self.seed)
        self.snapshots = {
            pid: runner.prepare_snapshot(
                pid, env_seed=derive_seed(self.seed, f"grid-env:{pid}"))
            for pid in dict.fromkeys(pid for pid, _ in self.shapes)
        }
        self.cells = []
        for i in range(self.n_ops):
            agent = AGENT_NAMES[i % len(AGENT_NAMES)]
            pid, limit = self.shapes[i % len(self.shapes)]
            self.cells.append((pid, GridCell(
                agent=agent_factory(agent), agent_name=agent,
                seed=agent_seed(i),
                max_steps=limit)))

    def run_op(self, i: int) -> dict[str, Any]:
        pid, cell = self.cells[i]
        return {"kind": "session", "max_steps": cell.max_steps,
                **batch.run_grid_cell(self.snapshots[pid], cell)}


class AggregateSoak(Workload):
    name = "aggregate_soak"
    why = ("two apps on the aggregate tier with a repeating metric-triggered "
           "inject/recover pair: the per-request walker is bypassed; work sits "
           "in profile compile, execute_many_all, scrape and watch evaluation")
    tail_pct = 90.0
    ops_per_round = 60
    quick_ops = 3
    expect_zero = ("services.execute_n", "core.fork_n")
    window_s = 60.0
    storm_threshold = 6000.0   # between the neighbour's base and burst rate

    def prepare(self) -> None:
        self.env = None
        self.env_seed = derive_seed(self.seed, "soak-env")

    def begin_round(self) -> None:
        self.close()
        self.env = CloudEnvironment([
            AppSpec(HotelReservation, policy=DiurnalRate(
                base=5000.0, amplitude=0.6, period=3600.0)),
            AppSpec(SocialNetwork, policy=BurstRate(
                base=2000.0, burst_factor=5.0, interval=600.0,
                burst_duration=60.0)),
        ], seed=self.env_seed, fidelity="aggregate")
        hotel_ns, social_ns = self.env.namespaces
        storm = dict(service="nginx-web-server", metric="request_rate",
                     threshold=self.storm_threshold, namespace=social_ns)
        self.armed = (FaultSchedule()
                      .when(MetricAbove(**storm), "NetworkLoss", ("search",),
                            namespace=hotel_ns, repeat=0)
                      .when(MetricBelow(**storm), "NetworkLoss", ("search",),
                            kind="recover", namespace=hotel_ns, repeat=0)
                      ).arm(self.env)
        self.t0 = self.env.clock.now

    def run_op(self, i: int) -> dict[str, Any]:
        env = self.env
        before = sum(d.stats.requests for d in env.drivers)
        env.advance(self.window_s)
        return {"kind": "window", "now": env.clock.now,
                "expected_now": self.t0 + (i + 1) * self.window_s,
                "new_requests":
                    sum(d.stats.requests for d in env.drivers) - before,
                "drivers": _driver_stats(env)}

    def end_round(self) -> dict[str, Any]:
        return {"now": self.env.clock.now, "armed_log": list(self.armed.log)}

    def layer_counters(self) -> dict[str, float]:
        return {"faults.timeline_fired": len(self.armed.log)}

    def close(self) -> None:
        if self.env is not None:
            self.env.close()
            self.env = None


class ClusterChurn(Workload):
    name = "cluster_churn"
    why = ("per-request traffic between mutating kubectl/helm ops and telemetry "
           "reads through the ACI: every op bumps the cluster version, so "
           "version-keyed caches are rebuilt every ~300 requests")
    tail_pct = 90.0
    ops_per_round = 12
    quick_ops = 3
    #: ...and no two ``advance`` calls may share a cluster version
    expect_zero = ("services.batch_n", "core.fork_n",
                   "kubesim.ops_without_version")
    step_s = 5.0
    traces_every = 4
    #: stateless services the operator disturbs (backends stay up, so
    #: restores always converge)
    services = ("geo", "profile", "rate", "recommendation", "reservation",
                "search", "user")

    def prepare(self) -> None:
        self.env = None
        self.env_seed = derive_seed(self.seed, "churn-env")
        self.registry = registry_for("mitigation")
        # the scripted operator: op 2k disturbs a service, op 2k+1 restores
        # it; pod names are only known at run time, so "delete pod" is
        # resolved from the operator's last `kubectl get pods` reading
        rng = random.Random(f"bench_e2e:churn:{self.seed}")
        self.plan: list[tuple[str, str, int]] = []
        kinds = ("scale", "delete-pod", "restart", "set-image", "patch", "helm")
        for k in range((self.n_ops + 1) // 2):
            self.plan.append((rng.choice(kinds), rng.choice(self.services),
                              rng.choice((0, 2, 3))))

    def begin_round(self) -> None:
        self.close()
        self.env = CloudEnvironment(HotelReservation, seed=self.env_seed,
                                    workload_rate=60.0)
        self.actions = TaskActions(self.env)
        self.ns = self.env.namespace
        self.t0 = self.env.clock.now
        self.pods_text = str(self._act("exec_shell",
                                       f"kubectl get pods -n {self.ns}"))

    def _act(self, name: str, *args: Any):
        return self.registry.execute(self.actions, name, *args)

    def _mutation(self, i: int) -> str:
        kind, svc, replicas = self.plan[i // 2]
        ns, restore = self.ns, i % 2 == 1
        release = self.env.app.release_name
        if kind == "scale":
            n = 1 if restore else replicas
            return f"kubectl scale deployment {svc} --replicas={n} -n {ns}"
        if kind == "delete-pod":
            if restore:
                return f"kubectl rollout restart deployment/{svc} -n {ns}"
            pod = next(line.split()[0] for line in self.pods_text.splitlines()
                       if line.startswith(f"{svc}-"))
            return f"kubectl delete pod {pod} -n {ns}"
        if kind == "restart":
            return f"kubectl rollout restart deployment/{svc} -n {ns}"
        if kind == "set-image":
            tag = "latest" if restore else "canary"
            return (f"kubectl set image deployment/{svc} "
                    f"{svc}=deathstarbench/hotel-{svc}:{tag} -n {ns}")
        if kind == "patch":
            n = 1 if restore else max(replicas, 2)
            return (f"kubectl patch deployment {svc} -n {ns} "
                    f"-p '{{\"spec\":{{\"replicas\":{n}}}}}'")
        flag = "false" if restore else "true"
        return f"helm upgrade {release} --set tls.enabled={flag}"

    def run_op(self, i: int) -> dict[str, Any]:
        env, ns = self.env, self.ns
        svc = self.plan[i // 2][1]
        command = self._mutation(i)
        outputs = [("exec_shell", self._act("exec_shell", command))]
        env.advance(self.step_s)
        pods = self._act("exec_shell", f"kubectl get pods -n {ns}")
        self.pods_text = str(pods)
        outputs.append(("exec_shell", pods))
        outputs.append(("exec_shell", self._act(
            "exec_shell", f"kubectl describe deployment {svc} -n {ns}")))
        outputs.append(("get_logs", self._act("get_logs", ns, svc)))
        outputs.append(("get_metrics", self._act("get_metrics", ns)))
        if i % self.traces_every == self.traces_every - 1:
            outputs.append(("get_traces", self._act("get_traces", ns)))
        return {
            "kind": "churn", "command": command,
            "now": env.clock.now,
            "expected_now": self.t0 + (i + 1) * self.step_s,
            "drivers": _driver_stats(env),
            # telemetry getters embed their (random) export directory in
            # the text; their payload is the deterministic part
            "outputs": [
                {"action": name, "ok": obs.ok,
                 "out": str(obs) if name == "exec_shell" else obs.payload}
                for name, obs in outputs],
        }

    def end_round(self) -> dict[str, Any]:
        return {"now": self.env.clock.now,
                "state_version": self.env.cluster.state_version}

    def close(self) -> None:
        if self.env is not None:
            self.env.close()
            self.env = None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SuitePaper, GridFork, AggregateSoak, ClusterChurn)}


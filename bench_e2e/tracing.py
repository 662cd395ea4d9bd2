"""Per-layer tracing of ``repro`` measured entirely from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public callables listed in :func:`_targets` with span-recording
wrappers and :func:`uninstall` puts the original objects back, so the
untraced rounds that produce the end-to-end numbers run the unmodified
program.  A span is ``[name, start, end, parent, op_id, args]``; spans stay
in memory and :func:`write_chrome_trace` dumps them when the benchmark
ends.  A layer's *self time* is its span minus the part its child spans
cover.

The benchmark drives one session at a time, so one global span stack is
enough even though the batch executor hops to a worker thread for session
set-up (the calling thread is parked on the event loop while
the worker runs).  Should a later change run spans concurrently the stack
discipline breaks; ``Tracer.overlaps`` counts that and the run is failed
rather than reporting wrong parents.

A second pass (:func:`profile_call`) runs a round under ``cProfile`` —
one profiler per thread, started through ``threading.setprofile`` — and
groups ``tottime`` and primitive call counts by ``src/repro/<layer>/``.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import os
import threading
import time
from typing import Any, Callable, Optional

#: the ``src/repro/`` packages that count as layers
LAYERS = ("simcore", "kubesim", "apps", "services", "workload", "telemetry",
          "faults", "core", "agents", "problems", "bench")

NAME, START, END, PARENT, OP, ARGS = range(6)


class Tracer:
    """In-memory span recorder with a single span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1          # -1 = set-up / rebuild, >= 0 = op index
        self.overlaps = 0
        #: cluster id -> last ``state_version`` seen at an advance boundary
        self.cluster_versions: dict[int, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.op_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, args: Optional[dict] = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if args:
            span[ARGS] = args
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self.overlaps += 1
            if idx in self._stack:
                self._stack.remove(idx)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty recording."""
        spans, self.spans, self._stack = self.spans, [], []
        return spans


TRACER = Tracer()

# (before, after) hooks: ``before(args, kwargs)`` returns any value,
# ``after(pre, args, kwargs, result, exc)`` returns the span's args dict
Hook = tuple[Optional[Callable], Optional[Callable]]


def _wrap(name: str, fn: Callable, hook: Hook = (None, None)) -> Callable:
    before, after = hook
    tracer = TRACER

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            idx = tracer.begin(name)
            result = exc = None
            try:
                result = await fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.end(idx, after(pre, args, kwargs, result, exc)
                           if after else None)
        return traced

    if before is None and after is None:
        # the per-request hot path (ServiceRuntime.execute): keep the
        # wrapper as thin as it can be
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        pre = before(args, kwargs) if before else None
        idx = tracer.begin(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            tracer.end(idx, after(pre, args, kwargs, result, exc)
                       if after else None)
    return traced


# ----------------------------------------------------------------------
# hooks: the counts recorded at the same boundaries as the spans
# ----------------------------------------------------------------------
def _dir_bytes(path: Any) -> int:
    total = 0
    with os.scandir(path) as it:
        for entry in it:
            if entry.is_file():
                total += entry.stat().st_size
    return total


def _note_cluster(env: Any) -> None:
    TRACER.cluster_versions[id(env.cluster)] = env.cluster.state_version


def _versions_seen(env: Any) -> int:
    """1 when the cluster version moved since the last advance boundary."""
    key, now = id(env.cluster), env.cluster.state_version
    moved = TRACER.cluster_versions.get(key, now) != now
    TRACER.cluster_versions[key] = now
    return int(moved)


def _advance_before(args, kwargs):
    env = args[0]
    return (sum(d.stats.requests for d in env.drivers),
            sum(d.stats.errors for d in env.drivers),
            _versions_seen(env))


def _advance_after(pre, args, kwargs, result, exc):
    env = args[0]
    seconds = args[1] if len(args) > 1 else kwargs.get("seconds", 0.0)
    return {
        "virt_s": float(seconds),
        "req": sum(d.stats.requests for d in env.drivers) - pre[0],
        "err": sum(d.stats.errors for d in env.drivers) - pre[1],
        "versions": pre[2] + _versions_seen(env),
    }


def _env_built(pre, args, kwargs, result, exc):
    if exc is None:
        _note_cluster(args[0])
    return None


def _forked(pre, args, kwargs, result, exc):
    if exc is None:
        _note_cluster(result[0])
    return None


def _hooks() -> dict[str, Hook]:
    from repro.core.actions import Observation
    from repro.core.parser import ActionParseError

    def export_after(pre, args, kwargs, result, exc):
        return {"bytes": _dir_bytes(result)} if exc is None else None

    def aci_after(pre, args, kwargs, result, exc):
        # ``submit`` ends the session by raising; that is not an error
        failed = exc is None and not getattr(result, "ok", True)
        return {"error": 1} if failed else None

    def run_after(pre, args, kwargs, result, exc):
        if exc is not None:
            return None
        return {"steps": result["steps"], "success": int(result["success"])}

    return {
        "core.env_build": (None, _env_built),
        "core.fork": (None, _forked),
        "core.advance": (_advance_before, _advance_after),
        "core.snapshot": (None, lambda pre, a, k, result, exc:
                          {"bytes": result.size_bytes} if exc is None else None),
        "simcore.run_until": (None, lambda pre, a, k, result, exc:
                              {"events": result} if exc is None else None),
        "services.batch": (None, lambda pre, a, k, result, exc:
                           {"req": sum(n for _, n in
                                       (a[1] if len(a) > 1 else k["requests"]))}),
        "telemetry.export_logs": (None, export_after),
        "telemetry.export_metrics": (None, export_after),
        "telemetry.export_traces": (None, export_after),
        "core.parse": (None, lambda pre, a, k, result, exc:
                       {"invalid": 1}
                       if isinstance(exc, ActionParseError) else None),
        "core.aci": (None, aci_after),
        "core.run": (None, run_after),
        # the ACI's own reading of kubectl's CLI-style error strings
        "kubesim.kubectl": (None, lambda pre, a, k, result, exc:
                            None if Observation.of(result).ok
                            else {"error": 1}),
    }


def _targets() -> list[tuple[str, Any, str]]:
    """(span name, owner, attribute) for every wrapped public callable."""
    import repro.problems
    from repro.agents import AGENT_NAMES, agent_factory
    from repro.agents.base import AgentBase
    from repro.apps.base import App
    from repro.core import batch, orchestrator
    from repro.core.actions import ActionRegistry
    from repro.core.env import CloudEnvironment, EnvSnapshot
    from repro.core.evaluator import Evaluator
    from repro.core.problem import Problem
    from repro.kubesim import Cluster, Helm, Kubectl
    from repro.services.runtime import ServiceRuntime
    from repro.simcore import EventQueue
    from repro.telemetry import TelemetryCollector, TelemetryExporter

    return [
        ("problems.resolve", repro.problems, "get_problem"),
        ("core.env_build", CloudEnvironment, "__init__"),
        ("apps.deploy", App, "deploy"),
        ("kubesim.helm", Helm, "install"),
        ("kubesim.helm", Helm, "upgrade"),
        ("core.warmup", Problem, "start_workload"),
        ("core.inject_soak", Problem, "inject_fault"),
        ("core.advance", CloudEnvironment, "advance"),
        ("core.snapshot", CloudEnvironment, "snapshot"),
        ("core.fork", EnvSnapshot, "fork_with_extras"),
        ("simcore.run_until", EventQueue, "run_until"),
        ("services.execute", ServiceRuntime, "execute"),
        ("services.batch", ServiceRuntime, "execute_many_all"),
        ("telemetry.scrape", TelemetryCollector, "scrape"),
        ("telemetry.export_logs", TelemetryExporter, "export_logs"),
        ("telemetry.export_metrics", TelemetryExporter, "export_metrics"),
        ("telemetry.export_traces", TelemetryExporter, "export_traces"),
        # the orchestrator imported parse_action by name; its module global
        # is the reference the agent loop actually calls
        ("core.parse", orchestrator, "parse_action"),
        ("core.aci", ActionRegistry, "execute"),
        ("core.handle_init", orchestrator.SessionHandle, "__init__"),
        ("core.run", orchestrator.SessionHandle, "run"),
        ("core.close", orchestrator.SessionHandle, "close"),
        ("core.grade", Evaluator, "evaluate"),
        ("kubesim.kubectl", Kubectl, "run"),
        ("kubesim.resync", Cluster, "resync"),
        ("agents.build", type(agent_factory(AGENT_NAMES[0])), "__call__"),
        ("agents.act", AgentBase, "get_action"),
        # what BenchmarkRunner.run_case delegates to (asyncio + to_thread hop)
        ("bench.run_case", batch, "run_sessions_sync"),
    ]


_installed: list[tuple[Any, str, Any]] = []


def public_callables() -> list[Any]:
    """The objects currently bound at every traced attribute (the smoke
    test compares this before and after a traced run)."""
    return [vars(owner)[attr] for _, owner, attr in _targets()]


def install() -> None:
    """Swap every target for its span-recording wrapper."""
    if _installed:
        raise RuntimeError("tracing is already installed")
    hooks = _hooks()
    for name, owner, attr in _targets():
        original = vars(owner)[attr]
        setattr(owner, attr, _wrap(name, original, hooks.get(name, (None, None))))
        _installed.append((owner, attr, original))


def uninstall() -> None:
    """Put the original objects back (identity-preserving)."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    TRACER.cluster_versions.clear()


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
def _self_times(spans: list[list]) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def span_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced round.

    Only spans inside ops (``op_id >= 0``) count; the untimed per-round
    rebuild of the stateful workloads is excluded like it is from the
    end-to-end numbers.  ``op`` spans are the roots the runner opens around
    each op.
    """
    own = _self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_total: dict[str, float] = {}
    arg_sum: dict[tuple[str, str], float] = {}
    advance_in_inject = 0.0
    for i, s in enumerate(spans):
        if s[OP] < 0:
            continue
        name = s[NAME]
        dur = s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own[i]
        for key, value in (s[ARGS] or {}).items():
            arg_sum[(name, key)] = arg_sum.get((name, key), 0.0) + value
        if name == "core.advance" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "core.inject_soak":
            advance_in_inject += dur

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> int:
        return count.get(name, 0)

    def a(name: str, key: str) -> float:
        return arg_sum.get((name, key), 0.0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    exports = ("telemetry.export_logs", "telemetry.export_metrics",
               "telemetry.export_traces")
    sessions = n("core.run")
    m = {
        "problems.resolve_s": t("problems.resolve"),
        "problems.resolve_n": n("problems.resolve"),
        "core.env_build_s": t("core.env_build"),
        "core.env_build_n": n("core.env_build"),
        "apps.deploy_s": t("apps.deploy"),
        "apps.deploy_n": n("apps.deploy"),
        "kubesim.helm_s": t("kubesim.helm"),
        "kubesim.helm_n": n("kubesim.helm"),
        "core.warmup_s": t("core.warmup"),
        "core.inject_soak_s": t("core.inject_soak"),
        "faults.inject_s": t("core.inject_soak") - advance_in_inject,
        "core.advance_s": t("core.advance"),
        "core.advance_n": n("core.advance"),
        "core.advance_virt_s": a("core.advance", "virt_s"),
        "simcore.run_until_s": t("simcore.run_until"),
        "simcore.run_until_n": n("simcore.run_until"),
        "simcore.events_fired": a("simcore.run_until", "events"),
        "simcore.us_per_event": per(
            self_total.get("simcore.run_until", 0.0) * 1e6,
            a("simcore.run_until", "events")),
        "services.execute_s": t("services.execute"),
        "services.execute_n": n("services.execute"),
        "services.execute_us_per_req": per(
            t("services.execute") * 1e6, n("services.execute")),
        "services.batch_s": t("services.batch"),
        "services.batch_n": n("services.batch"),
        "services.batch_req": a("services.batch", "req"),
        "workload.sim_req": a("core.advance", "req"),
        "workload.sim_err": a("core.advance", "err"),
        "workload.sim_req_per_s": per(
            a("core.advance", "req"), t("core.advance")),
        "workload.virt_x_realtime": per(
            a("core.advance", "virt_s"), t("core.advance")),
        "telemetry.scrape_s": t("telemetry.scrape"),
        "telemetry.scrape_n": n("telemetry.scrape"),
        "telemetry.export_logs_s": t("telemetry.export_logs"),
        "telemetry.export_metrics_s": t("telemetry.export_metrics"),
        "telemetry.export_traces_s": t("telemetry.export_traces"),
        "telemetry.export_n": sum(n(e) for e in exports),
        "telemetry.export_mb": sum(a(e, "bytes") for e in exports) / 1e6,
        "core.parse_s": t("core.parse"),
        "core.parse_n": n("core.parse"),
        "core.parse_invalid_n": a("core.parse", "invalid"),
        "core.aci_s": t("core.aci"),
        "core.aci_n": n("core.aci"),
        "core.aci_error_n": a("core.aci", "error"),
        "core.handle_init_s": t("core.handle_init"),
        "core.run_s": t("core.run"),
        "core.grade_s": t("core.grade"),
        "core.close_s": t("core.close"),
        "core.fork_s": t("core.fork"),
        "core.fork_n": n("core.fork"),
        "kubesim.kubectl_s": t("kubesim.kubectl"),
        "kubesim.kubectl_n": n("kubesim.kubectl"),
        "kubesim.kubectl_error_n": a("kubesim.kubectl", "error"),
        "kubesim.resync_s": t("kubesim.resync"),
        "kubesim.resync_n": n("kubesim.resync"),
        "kubesim.state_versions": a("core.advance", "versions"),
        "agents.build_s": t("agents.build"),
        "agents.act_s": t("agents.act"),
        "agents.act_n": n("agents.act"),
        "agents.steps_per_session": per(a("core.run", "steps"), sessions),
        "agents.success_frac": per(a("core.run", "success"), sessions),
        "bench.run_case_overhead_s": self_total.get("bench.run_case", 0.0),
        "bench.unattributed_s": self_total.get("op", 0.0),
    }
    if n("op") != n_ops:
        raise ValueError(f"traced round recorded {n('op')} op spans, "
                         f"expected {n_ops}")
    return m


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """What the traced set-up (everything before the first op) spent where
    — the per-layer side of ``setup_s``."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    snapshot_bytes = 0
    for s in spans:
        total[s[NAME]] = total.get(s[NAME], 0.0) + s[END] - s[START]
        count[s[NAME]] = count.get(s[NAME], 0) + 1
        if s[NAME] == "core.snapshot":
            snapshot_bytes += (s[ARGS] or {}).get("bytes", 0)
    return {
        "setup.env_build_s": total.get("core.env_build", 0.0),
        "setup.env_build_n": count.get("core.env_build", 0),
        "setup.warmup_s": total.get("core.warmup", 0.0),
        "setup.inject_soak_s": total.get("core.inject_soak", 0.0),
        "setup.advance_s": total.get("core.advance", 0.0),
        "setup.execute_n": count.get("services.execute", 0),
        "setup.batch_n": count.get("services.batch", 0),
        "core.snapshot_s": total.get("core.snapshot", 0.0),
        "core.snapshot_mb": snapshot_bytes / 1e6,
    }


def profile_store_stats() -> dict[str, int]:
    """A copy of the process-wide profile store's hit/miss/store counts."""
    from repro.services.profile import SHARED_PROFILES
    return dict(SHARED_PROFILES.stats)


def ops_with(spans: list[list], name: str, arg: Optional[str] = None) -> set[int]:
    """Op ids that contain a span called ``name`` (with a non-zero ``arg``)."""
    return {s[OP] for s in spans
            if s[OP] >= 0 and s[NAME] == name
            and (arg is None or (s[ARGS] or {}).get(arg, 0))}


# ----------------------------------------------------------------------
# cProfile pass: tottime / primitive calls grouped by layer
# ----------------------------------------------------------------------
def profile_call(fn: Callable[[], Any]) -> dict[str, float]:
    """Run ``fn`` under cProfile (every thread it starts included) and
    return ``<layer>.self_s`` / ``<layer>.py_calls``."""
    profiles: list[cProfile.Profile] = []

    def start_in_thread(*_):
        # first profile event in a new thread: swap this hook for a
        # C-level profiler of the thread's own
        prof = cProfile.Profile()
        profiles.append(prof)
        prof.enable()

    main = cProfile.Profile()
    profiles.append(main)
    previous = threading.getprofile()
    threading.setprofile(start_in_thread)
    main.enable()
    try:
        fn()
    finally:
        main.disable()
        threading.setprofile(previous)
    marker = os.sep + os.path.join("src", "repro") + os.sep
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for prof in profiles:
        for entry in prof.getstats():
            filename = getattr(entry.code, "co_filename", "")
            _, found, rest = filename.rpartition(marker)
            layer = rest.split(os.sep, 1)[0] if found else ""
            if layer in self_s:
                self_s[layer] += entry.inlinetime
                calls[layer] += entry.callcount - entry.reccallcount
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.py_calls"] = calls[layer]
    return out


# ----------------------------------------------------------------------
def write_chrome_trace(path: str, recordings: dict[str, list[list]]) -> None:
    """Write ``{workload: spans}`` as one Chrome-trace JSON file (open it in
    chrome://tracing or https://ui.perfetto.dev); one process row per
    workload, ``op_id`` and the recorded counts in each event's args."""
    events: list[dict] = []
    for pid, (workload, spans) in enumerate(recordings.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        if not spans:
            continue
        t0 = spans[0][START]
        for s in spans:
            args = {"op_id": s[OP]}
            args.update(s[ARGS] or {})
            events.append({
                "name": s[NAME], "ph": "X", "pid": pid, "tid": 1,
                "ts": round((s[START] - t0) * 1e6, 1),
                "dur": round((s[END] - s[START]) * 1e6, 1),
                "args": args,
            })
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

#!/usr/bin/env python3
"""bench_e2e — the session / suite / grid benchmark of this repository.

    python3 bench_e2e/run.py --seed 0                 # all four workloads
    python3 bench_e2e/run.py --workload grid_fork --seed 3 --seconds 20 --trace 0
    python3 bench_e2e/run.py --selfcheck              # A/A: two sets must agree
    python3 bench_e2e/run.py --quick                  # smoke: 1 round, few ops

One process, one thread, closed loop.  Every workload repeats one seeded op
list in identical rounds (interleaved across workloads) until ``--seconds``
of measuring is spent; end-to-end numbers come from untraced rounds only
and the per-layer ledger from a separate traced pass (``tracing.py``).
With ``--workload`` the last line of stdout is the JSON object the driver
reads.  See README.md for the metric glossary and the noise policy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src"))
                if p not in sys.path]

from bench_e2e import checks, tracing  # noqa: E402  (needs ROOT on sys.path)

SETUP_REPS = 3          # set-ups per run; setup_s reports their median
MIN_ROUNDS = 3          # untraced rounds per workload, whatever --seconds says
TRACE_SHARE = 0.3       # of --seconds, for the traced rounds of a traced pass
UNATTRIBUTED_MAX = 0.15  # share of a traced round that may sit in no layer span

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
             "op_ms_tail": "ms", "cpu_ms_per_op": "ms", "rss_peak_mb": "MB"}


# ----------------------------------------------------------------------
# host-side measurements
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) and of the children
    it has waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _descendants(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids = [int(k) for k in f.read().split()]
        except OSError:
            continue
        for kid in kids:
            found.append(kid)
            found.extend(_descendants(kid))
    return found


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1e6


def rss_mb() -> float:
    """Resident set of this process plus every live descendant."""
    pages = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/statm") as f:
                pages += int(f.read().split()[1])
        except OSError:
            pass  # the child exited between listing and reading
    return pages * _PAGE_MB


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    import numpy    # a hard dependency of repro; loaded with it, not before
    return float(numpy.percentile(values, pct))


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0], values[0]]
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class Round:
    wall: float                 # sum of the ops' wall times
    op_wall: list[float]
    op_cpu: list[float]
    rss_peak: float
    digest: str
    failures: list[str]         # one entry per failed op
    elapsed: float              # rebuild + ops + checks, for the time budget
    layer: dict[str, float] = field(default_factory=dict)   # traced rounds
    spans: list = field(default_factory=list)               # traced rounds


def run_round(w, tracer=None) -> Round:
    """Untimed rebuild, then one pass over the workload's op list."""
    started = time.perf_counter()
    w.begin_round()
    gc.collect()    # same collector state at every round start
    r = run_ops(w, tracer)
    r.elapsed = time.perf_counter() - started
    return r


def run_ops(w, tracer=None) -> Round:
    """One pass over the op list of a workload that is at round start.
    With ``tracer`` every op is wrapped in an ``op`` root span and tagged
    with its index."""
    records: list[Any] = []
    op_wall: list[float] = []
    op_cpu: list[float] = []
    failures: list[str] = []
    rss_peak = 0.0
    for i in range(w.n_ops):
        if tracer is not None:
            tracer.op_id = i
            root = tracer.begin("op")
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            record = w.run_op(i)
        except Exception:   # an op that raises is a failed op, not a crash
            record = {"kind": "raised",
                      "error": traceback.format_exc(limit=6)}
        op_wall.append(time.perf_counter() - t0)
        op_cpu.append(cpu_seconds() - cpu0)
        if tracer is not None:
            tracer.end(root)
            tracer.op_id = -1
        records.append(record)
        rss_peak = max(rss_peak, rss_mb())
    for i, record in enumerate(records):
        problems = ([record["error"]] if record.get("kind") == "raised"
                    else checks.op_problems(record))
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
    return Round(wall=sum(op_wall), op_wall=op_wall, op_cpu=op_cpu,
                 rss_peak=rss_peak,
                 digest=checks.digest(records, w.end_round()),
                 failures=failures, elapsed=0.0)


def measure(workloads: list, seconds: float, min_rounds: int,
            traced: bool = False) -> dict[str, list[Round]]:
    """Interleaved identical rounds (A B C D A B C D ...), so a slow phase
    of the shared machine hits every workload alike.  A workload stops once
    another round would overshoot its ``seconds`` by more than it
    undershoots now."""
    rounds: dict[str, list[Round]] = {w.name: [] for w in workloads}
    spent = dict.fromkeys(rounds, 0.0)
    active = list(workloads)
    while active:
        for w in list(active):
            r = _traced_round(w) if traced else run_round(w)
            done = rounds[w.name]
            done.append(r)
            spent[w.name] += r.elapsed
            typical = statistics.median(x.elapsed for x in done)
            if len(done) >= min_rounds \
                    and spent[w.name] + typical / 2 >= seconds:
                active.remove(w)
    return rounds


def _traced_round(w) -> Round:
    """A round under the installed tracer, with its per-layer ledger."""
    tracer = tracing.TRACER
    tracer.take()
    before = tracing.profile_store_stats()
    r = run_round(w, tracer)
    after = tracing.profile_store_stats()
    spans = tracer.take()
    layer = tracing.span_metrics(spans, w.n_ops)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    layer["services.profile_hits"] = hits
    layer["services.profile_misses"] = misses
    layer["services.profile_hit_ratio"] = \
        hits / (hits + misses) if hits + misses else 0.0
    layer.update(w.layer_counters())
    layer["bench.unattributed_frac"] = \
        layer.pop("bench.unattributed_s") / r.wall
    layer["kubesim.ops_without_version"] = w.n_ops - len(
        tracing.ops_with(spans, "core.advance", "versions"))
    r.layer, r.spans = layer, spans
    return r


# ----------------------------------------------------------------------
# one workload's numbers
# ----------------------------------------------------------------------
def end_to_end(w, setup_times: list[float], import_s: float,
               rounds: list[Round]) -> dict[str, Any]:
    """Every round is the same deterministic work measured again, and on a
    shared host contention only ever adds time, in bursts of a few seconds.
    So an op's time is the **fastest** of its samples over the rounds — the
    estimate closest to the program's own cost and by far the steadiest one
    (README, "noise policy") — and the round-level numbers are built from
    those.  Median and quartiles over whole rounds are kept beside them as
    the noise band.
    """
    n = w.n_ops
    walls = [r.wall for r in rounds]
    op_wall = [min(r.op_wall[i] for r in rounds) for i in range(n)]
    op_cpu = [min(r.op_cpu[i] for r in rounds) for i in range(n)]
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": n / sum(op_wall),
        "op_ms_p50": statistics.median(op_wall) * 1e3,
        "op_ms_tail": percentile(op_wall, w.tail_pct) * 1e3,
        "cpu_ms_per_op": sum(op_cpu) / n * 1e3,
        "rss_peak_mb": max(r.rss_peak for r in rounds),
    }
    return {
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                    for k, v in values.items()},
        # [q1, median, q3] over whole rounds (over set-ups for setup_s)
        "bands": {
            "ops_per_s": [n / q for q in reversed(quartiles(walls))],
            "cpu_ms_per_op": [q / n * 1e3 for q in quartiles(
                [sum(r.op_cpu) for r in rounds])],
            "setup_s": [import_s + q for q in quartiles(setup_times)],
        },
        "op_ms": [t * 1e3 for t in op_wall],
        "rounds": len(rounds), "ops_per_round": n, "tail_pct": w.tail_pct,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("_per_s") else "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_x", "x_realtime")):
        return "x"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith(("us_per_event", "us_per_req")):
        return "us"
    return "count"


def per_layer(untraced: list[Round], fastest: Round,
              setup_layer: dict[str, float],
              profile: dict[str, float]) -> dict[str, Any]:
    """``fastest`` is the fastest traced round: one round's ledger, so that
    the layer times add up."""
    values = dict(fastest.layer)
    values.update(setup_layer)
    values.update(profile)
    values["bench.trace_overhead_x"] = \
        fastest.wall / min(r.wall for r in untraced)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_problems(w, metrics: dict[str, Any]) -> list[str]:
    """The workload's bypass predictions (``Workload.expect_zero``) and the
    tracing's own coverage."""
    def v(name: str) -> float:
        return metrics[name]["value"]

    problems = []
    for name in w.expect_zero:
        if v(name) != 0:
            problems.append(f"{name} = {v(name)} on {w.name}, expected 0")
    if v("bench.unattributed_frac") > UNATTRIBUTED_MAX:
        problems.append(
            f"{v('bench.unattributed_frac'):.1%} of the traced round sits "
            f"in no layer span (limit {UNATTRIBUTED_MAX:.0%})")
    return problems


# ----------------------------------------------------------------------
# a full set: set-up, untraced rounds, optional traced pass
# ----------------------------------------------------------------------
def run_set(names: list[str], seed: int, seconds: float, quick: bool,
            want_e2e: bool, want_layers: bool, import_s: float,
            spec: dict[str, Any]) -> tuple[dict[str, Any], dict[str, list]]:
    """Returns the results per workload and, after a traced pass, the spans
    per workload for trace.json (traced set-up, then fastest traced round)."""
    from bench_e2e.workloads import WORKLOADS

    reps = 1 if quick or not want_e2e else SETUP_REPS
    min_rounds = 1 if quick else MIN_ROUNDS
    workloads, setup_times = [], {}
    for name in names:
        times = []
        for rep in range(reps):
            w = WORKLOADS[name](seed, quick)
            t0 = time.perf_counter()
            w.setup()
            times.append(time.perf_counter() - t0)
            if rep < reps - 1:
                w.close()
        workloads.append(w)
        setup_times[name] = times

    # a traced-only run needs untraced rounds just as the reference for
    # trace_overhead_x; it splits --seconds so both modes take about as long
    if want_e2e:
        untraced = measure(workloads, 0.0 if quick else seconds, min_rounds)
    else:
        untraced = measure(workloads, seconds * TRACE_SHARE, 1)

    traced: dict[str, list[Round]] = {}
    setup_spans: dict[str, list] = {}
    trace_spans: dict[str, list] = {}
    setup_layer: dict[str, dict[str, float]] = {}
    profiles: dict[str, dict[str, float]] = {}
    profiled: dict[str, list[Round]] = {}
    if want_layers:
        tracing.install()
        try:
            for name in names:          # a traced set-up of a fresh instance
                probe = WORKLOADS[name](seed, quick)
                tracing.TRACER.take()
                probe.setup()
                probe.close()
                spans = tracing.TRACER.take()
                setup_layer[name] = tracing.setup_metrics(spans)
                setup_spans[name] = spans
            traced = measure(workloads,
                             0.0 if quick else seconds * TRACE_SHARE, 1,
                             traced=True)
            overlaps = tracing.TRACER.overlaps
        finally:
            tracing.uninstall()
        for w in workloads:             # unwrapped ops under cProfile
            w.begin_round()
            gc.collect()
            profiled[w.name] = []
            profiles[w.name] = tracing.profile_call(
                lambda: profiled[w.name].append(run_ops(w)))

    results: dict[str, Any] = {}
    for w in workloads:
        name = w.name
        all_rounds = untraced[name] + traced.get(name, []) \
            + profiled.get(name, [])
        failures = [f for r in all_rounds for f in r.failures]
        failed = len(failures)
        first = all_rounds[0].digest
        for k, r in enumerate(all_rounds):
            if r.digest != first:   # every op of a diverging round fails
                failures.append(f"round {k} digest {r.digest[:12]} differs "
                                f"from round 0 {first[:12]}")
                failed += w.n_ops - len(r.failures)
        res: dict[str, Any] = {
            "attempted": len(all_rounds) * w.n_ops, "failed": failed,
            "failures": failures[:20], "digest": first, "why": w.why,
        }
        if want_e2e:
            res["end_to_end"] = end_to_end(
                w, setup_times[name], import_s, untraced[name])
            res["failed_frac"] = failed / res["attempted"]
        problems: list[str] = []
        if want_layers:
            fastest = min(traced[name], key=lambda r: r.wall)
            trace_spans[name] = setup_spans[name] + fastest.spans
            res["per_layer"] = per_layer(untraced[name], fastest,
                                         setup_layer[name], profiles[name])
            problems += layer_problems(w, res["per_layer"])
            if overlaps:
                problems.append(f"{overlaps} spans overlapped: the program "
                                f"ran work concurrently")
        if want_e2e:
            problems += checks.contract_problems(
                spec, name, False, res["end_to_end"]["metrics"])
        if want_layers:
            problems += checks.contract_problems(
                spec, name, True, res["per_layer"])
        res["problems"] = problems
        res["correct"] = failed == 0 and not problems
        results[name] = res
        w.close()
    return results, trace_spans


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_report(results: dict[str, Any], spec: dict[str, Any]) -> None:
    rules = {m["name"]: m for m in spec["end_to_end"]}
    for name, res in results.items():
        print(f"\n== {name}: {res['attempted']} ops attempted, "
              f"{res['failed']} failed, digest {res['digest'][:16]}")
        if "end_to_end" in res:
            e = res["end_to_end"]
            print(f"   {e['rounds']} rounds x {e['ops_per_round']} ops; "
                  f"op_ms_tail = p{e['tail_pct']:g} over the "
                  f"{e['ops_per_round']} op indices")
            for key, m in e["metrics"].items():
                rule = rules.get(key, {})
                band = e["bands"].get(key)
                extra = (f"  rounds q1/med/q3 {band[0]:.4g}/{band[1]:.4g}/"
                         f"{band[2]:.4g}" if band else "")
                print(f"   {key:<16}{m['value']:>12.4f} {m['unit']:<4} "
                      f"{rule.get('better', ''):<6} "
                      f"bound {rule.get('bound', '-')}{extra}")
            print(f"   {'failed_frac':<16}{res['failed_frac']:>12.4f}")
        for key, m in res.get("per_layer", {}).items():
            print(f"   {key:<30}{m['value']:>14.6g} {m['unit']}")
        for line in res["failures"] + res["problems"]:
            print(f"   !! {line}")


def driver_line(res: dict[str, Any], trace: bool) -> str:
    metrics = res["per_layer"] if trace else res["end_to_end"]["metrics"]
    return json.dumps({"correct": res["correct"],
                       "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def selfcheck(a: dict[str, Any], b: dict[str, Any],
              spec: dict[str, Any]) -> bool:
    """A/A: two sets of the same code must agree within each metric's own
    bound; prints the observed relative spread so bounds come from
    measurement."""
    ok = True
    print("\n== selfcheck: relative difference between two sets "
          "(positive = second set worse)")
    for name in a:
        for m in spec["end_to_end"]:
            x = a[name]["end_to_end"]["metrics"][m["name"]]["value"]
            y = b[name]["end_to_end"]["metrics"][m["name"]]["value"]
            worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
            within = abs(worse) <= m["bound"]
            ok = ok and within
            print(f"   {name:<16}{m['name']:<16}{x:>12.4f}{y:>12.4f} "
                  f"{worse:>+8.1%}  bound {m['bound']:.0%} "
                  f"{'ok' if within else 'EXCEEDED'}")
    return ok


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload; the last "
                        "stdout line is then the driver's JSON object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only (no traced pass); "
                             "1: per-layer metrics only; default: both")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two untraced sets and compare them")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one round of 2-3 ops, traced")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench_e2e: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"bench_e2e: unknown workload {args.workload!r}; "
              f"BENCHMARK.json names {known}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else known
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # the program exports telemetry under tempfile's directory: keep every
    # file it writes inside the checkout
    tmp = os.path.join(OUT, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    previous_tmp, tempfile.tempdir = tempfile.tempdir, tmp
    t0 = time.perf_counter()
    import bench_e2e.workloads  # noqa: F401  (pulls in all of repro)
    import_s = time.perf_counter() - t0

    want_e2e = args.trace != 1 or args.selfcheck
    want_layers = args.trace != 0 and not args.selfcheck
    try:
        results, trace_spans = run_set(names, args.seed, seconds, args.quick,
                                       want_e2e, want_layers, import_s, spec)
        print_report(results, spec)
        ok = all(r["correct"] for r in results.values())
        if args.selfcheck:
            second, _ = run_set(names, args.seed, seconds, args.quick,
                                True, False, import_s, spec)
            print_report(second, spec)
            ok = ok and all(r["correct"] for r in second.values())
            ok = selfcheck(results, second, spec) and ok
        payload = {
            "seed": args.seed, "seconds": seconds, "quick": args.quick,
            "host": {"nproc": os.cpu_count(),
                     "python": platform.python_version(),
                     "machine": platform.machine()},
            "workloads": results,
        }
        with open(os.path.join(OUT, "result.json"), "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        if want_layers:
            tracing.write_chrome_trace(
                os.path.join(OUT, "trace.json"), trace_spans)
    finally:
        tempfile.tempdir = previous_tmp
        shutil.rmtree(tmp, ignore_errors=True)
    if args.workload:
        print(driver_line(results[args.workload], args.trace == 1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tier-1 smoke test of the benchmark: a ``--quick`` run (one round of a
few ops per workload, traced) must produce every workload, every metric
``BENCHMARK.json`` names, no failed op, the bypass predictions, and must
leave the program's public callables exactly as it found them."""

import json
import os

from bench_e2e import checks, run, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_run_schema_bypasses_and_clean_uninstall():
    before = tracing.public_callables()
    assert run.main(["--quick", "--seed", "0"]) == 0
    after = tracing.public_callables()
    assert len(before) == len(after) > 20
    assert all(a is b for a, b in zip(before, after))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(run.OUT, "result.json")) as f:
        result = json.load(f)
    workloads = result["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in spec["workloads"])
    assert len(workloads) == 4
    for name, res in workloads.items():
        assert res["correct"], (name, res["failures"], res["problems"])
        assert res["failed"] == 0 and res["failed_frac"] == 0
        assert res["attempted"] >= 1
        e2e = res["end_to_end"]["metrics"]
        for m in spec["end_to_end"]:
            assert e2e[m["name"]]["unit"] == m["unit"], (name, m)
            assert e2e[m["name"]]["value"] > 0, (name, m)
        layer = res["per_layer"]
        assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
        for m in spec["per_layer"]:
            assert layer[m["name"]]["unit"] == m["unit"], (name, m)
            assert checks.NAME_RE.match(m["name"])
        walker = layer["services.execute_n"]["value"]
        batches = layer["services.batch_n"]["value"]
        if name == "aggregate_soak":
            assert walker == 0 and batches > 0
        else:
            assert batches == 0 and walker > 0

    with open(os.path.join(run.OUT, "trace.json")) as f:
        events = json.load(f)["traceEvents"]
    assert {e["name"] for e in events} >= {"op", "core.advance"}


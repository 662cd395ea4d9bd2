"""Output checking: per-op invariants, the per-round digest, and the
contract between the benchmark's output and ``BENCHMARK.json``.

An op fails when it raises, when its record breaks an invariant below, or
when it belongs to a round whose digest differs from round 1 of the same
run (the simulator is deterministic, so identical inputs must give
identical outputs).  The digest is printed so a parent and a change can be
compared by eye; it is not gated across commits.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: keys every graded result must carry, by task type (see core/problem.py)
GRADING_KEYS = {
    "detection": ("TTD", "success"),
    "localization": ("TTL", "success", "success@1", "success@3"),
    "analysis": ("TTA", "success", "level_correct", "type_correct"),
    "mitigation": ("TTM", "success", "reason"),
}
_SESSION_KEYS = ("pid", "task_type", "agent", "success", "duration_s",
                 "steps", "input_tokens", "output_tokens")


def canonical(record: Any) -> str:
    """Stable JSON text of a record (floats by repr, keys sorted)."""
    return json.dumps(record, sort_keys=True, default=repr)


def digest(op_records: list[Any], round_state: Any) -> str:
    """sha256 over a round's op records and its end-of-round state."""
    h = hashlib.sha256()
    for record in op_records:
        h.update(canonical(record).encode())
        h.update(b"\n")
    h.update(canonical(round_state).encode())
    return h.hexdigest()


def _driver_problems(record: dict[str, Any]) -> list[str]:
    problems = []
    if record["now"] != record["expected_now"]:
        problems.append(f"virtual time {record['now']} != "
                        f"expected {record['expected_now']}")
    for i, d in enumerate(record["drivers"]):
        if sum(d["per_operation"].values()) != d["requests"]:
            problems.append(f"driver {i}: per-operation counts do not add "
                            f"up to {d['requests']} requests")
        if not 0 <= d["errors"] <= d["requests"]:
            problems.append(f"driver {i}: {d['errors']} errors out of "
                            f"{d['requests']} requests")
    return problems


def op_problems(record: dict[str, Any]) -> list[str]:
    """Invariant violations of one op record (empty = the op passed)."""
    kind = record.get("kind")
    if kind == "session":
        missing = [k for k in _SESSION_KEYS if k not in record]
        if missing:
            return [f"result lacks {missing}"]
        problems = []
        grading = GRADING_KEYS.get(record["task_type"])
        if grading is None:
            problems.append(f"unknown task type {record['task_type']!r}")
        else:
            lacking = [k for k in grading if k not in record]
            if lacking:
                problems.append(f"result lacks grading keys {lacking}")
        if not 1 <= record["steps"] <= record["max_steps"]:
            problems.append(f"{record['steps']} steps outside "
                            f"1..{record['max_steps']}")
        if not isinstance(record["success"], bool):
            problems.append("success is not a bool")
        if not record["duration_s"] > 0:
            problems.append(f"duration_s {record['duration_s']} not positive")
        return problems
    if kind == "window":
        problems = _driver_problems(record)
        if record["new_requests"] <= 0:
            problems.append("the window simulated no requests")
        return problems
    if kind == "churn":
        problems = _driver_problems(record)
        for out in record["outputs"]:
            if not out["ok"]:
                problems.append(f"{out['action']} after {record['command']!r} "
                                f"returned an error: {str(out['out'])[:120]}")
        return problems
    return [f"unknown record kind {kind!r}"]


def contract_problems(spec: dict[str, Any], workload: str, trace: bool,
                      metrics: dict[str, Any]) -> list[str]:
    """What ``BENCHMARK.json`` names that the output lacks (or misnames)."""
    problems = []
    if workload not in [w["name"] for w in spec["workloads"]]:
        problems.append(f"workload {workload!r} is not in BENCHMARK.json")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']!r} missing from the output")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']!r} has unit {got['unit']!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
    for name in list(metrics) + [workload]:
        if not NAME_RE.match(name):
            problems.append(f"name {name!r} is not [A-Za-z0-9][A-Za-z0-9_.-]*")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not named in BENCHMARK.json: {sorted(extra)}")
    return problems

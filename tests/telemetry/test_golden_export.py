"""Every byte of telemetry an agent, a baseline or an export file sees,
pinned for every paper incident's preparation and two scenarios.

``golden_export.json`` was recorded by running this file as a script:
the first three entries at commit 048d3d7 (the last commit whose traces
stored their ids per span), the rest at commit 7511ec8 (the last commit
whose paper problems injected their fault without a ``FaultSchedule``),
which reproduced the first three unchanged; the ``<ROOT>/`` placeholder
the text once carried was dropped when observations began to name exports
relative to the export root.  For each problem, after ``prepare`` at env
seed 4 and 30 more seconds, it holds: the sha256 and length of every file
``TelemetryExporter.export_all`` writes per namespace; the ACI's
``get_logs``/``get_traces`` text; for a problem with a target,
``get_logs`` of the target and ``kubectl logs`` of its first pod, if it
has one; and the last 50 ``RequestResult.trace_id`` values of each
workload driver.  The first three problems cover the per-request tier, the aggregate tier's exemplar
traces and two namespaces on one collector.  ``prepare`` depends on the
fault, the target and the app but not on the task, so one detection pid
per remaining paper incident, and one Noop probe, pin every paper
preparation.

Re-record (only when an output change is intended and reviewed)::

    PYTHONPATH=src python tests/telemetry/test_golden_export.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.core.aci import TaskActions
from repro.core.shell import ShellExecutor
from repro.problems import get_problem
from repro.telemetry import TelemetryExporter

GOLDEN = Path(__file__).with_name("golden_export.json")
ENV_SEED = 4
PIDS = (
    "revoke_auth_hotel_res-localization-1",         # per-request tier
    "highrate_misconfig_social_net-detection-1",    # aggregate tier
    "noisy_neighbor_multi_hotel_res-detection-1",   # two namespaces
    # the twelve other paper incidents, one task each, and a Noop probe
    "auth_missing_hotel_res-detection-1",
    "misconfig_k8s_social_net-detection-1",
    "misconfig_k8s_social_net-detection-2",
    "misconfig_k8s_social_net-detection-3",
    "revoke_auth_hotel_res-detection-2",
    "user_unregistered_hotel_res-detection-1",
    "user_unregistered_hotel_res-detection-2",
    "buggy_app_image_hotel_res-detection-1",
    "scale_pod_zero_social_net-detection-1",
    "assign_to_non_existent_node_social_net-detection-1",
    "network_loss_hotel_res-detection-1",
    "pod_failure_hotel_res-detection-1",
    "noop_hotel_res-detection-1",
)


def _digest(root: Path) -> dict:
    return {str(p.relative_to(root)): [hashlib.sha256(p.read_bytes())
                                       .hexdigest(), p.stat().st_size]
            for p in sorted(root.rglob("*")) if p.is_file()}


def capture(pid: str) -> dict:
    prob = get_problem(pid)
    env = prob.prepare(ENV_SEED)
    env.advance(30.0)
    files = {}
    for ns in env.namespaces:
        with tempfile.TemporaryDirectory() as tmp:
            TelemetryExporter(env.collector, tmp).export_all(ns)
            files[ns] = _digest(Path(tmp))
    aci = TaskActions(env)
    text = {}
    for ns in env.namespaces:
        text[f"get_logs({ns}, all)"] = aci.get_logs(ns, "all")
        text[f"get_traces({ns})"] = aci.get_traces(ns)
    if prob.target is not None:
        text[f"get_logs({env.namespace}, {prob.target})"] = \
            aci.get_logs(env.namespace, prob.target)
        dep = env.cluster.get_deployment(env.namespace, prob.target)
        # a target scaled to zero has no pod to read
        for pod in env.cluster.pods_for_deployment(dep)[:1]:
            command = f"kubectl logs {pod.name} -n {env.namespace}"
            text[command] = ShellExecutor(env).run(command)
    record = {
        "files": files,
        "text": text,
        "trace_ids": [[r.trace_id for r in d.recent_results[-50:]]
                      for d in env.drivers],
    }
    env.close()
    return record


def _dump(record: dict) -> str:
    return json.dumps(record, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_pinned_pid(golden):
    assert list(golden) == list(PIDS)


@pytest.mark.parametrize("pid", PIDS)
def test_export_reproduces_golden(golden, pid):
    assert _dump(capture(pid)) == _dump(golden[pid])


if __name__ == "__main__":
    GOLDEN.write_text(_dump({pid: capture(pid) for pid in PIDS}) + "\n")
    print(f"recorded {GOLDEN}")

"""What this reproduction asserts about the paper — each claim written once.

One :class:`Claim` row per shape target of the paper's evaluation (§3).
``check`` is a predicate over an :class:`~repro.bench.report.ExperimentReport`'s
*numbers* — never over rendered text.  ``benchmarks/test_claims.py``
asserts every row, ``render_markdown`` prints a verdict per row, and
``scripts/gen_docs.py`` renders the table to ``docs/claims.md``.

Accuracies are fractions in [0, 1]; Figure 6/7 values are percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.agents.registry import AGENT_NAMES
from repro.bench.figures import (
    TELEMETRY_APIS, command_counts, figure6_api_usage,
    figure7_action_distribution,
)
from repro.bench.tables import table2_problem_pool
from repro.problems import pool_summary


@dataclass(frozen=True)
class Claim:
    id: str
    section: str        # where the paper makes it
    statement: str
    check: Callable[..., bool]      # over an ExperimentReport


GPT4, GPT35 = "gpt-4-w-shell", "gpt-3.5-w-shell"
_CAPABLE = (GPT4, "react", "flash")          # every LLM agent but GPT-3.5


def _acc(r, agent, task=None, at=1):
    return r.results.accuracy(agent, task, at=at)


def _pool(fault=None):
    """Table 2's ``# Problems`` for one fault name (or summed)."""
    counts = {row[1]: row[-1] for row in table2_problem_pool()[1]}
    return counts[fault] if fault else sum(counts.values())


def _best(scores: dict) -> str:
    return max(scores, key=scores.get)       # first of equals wins


def _share(r, outcome, *buckets):
    """Figure 7: percent of ``outcome`` cases' actions in ``buckets``."""
    dist = figure7_action_distribution(r.results)[outcome]
    return sum(dist[b] for b in buckets)


CLAIMS: tuple[Claim, ...] = (
    Claim("table2-counts-sum-50", "Table 2",
          "the per-fault problem counts sum to 50 (48 + the two Noop probes)",
          lambda r: _pool() == 50),
    Claim("table2-pool-48", "Table 2",
          "the benchmark pool holds 48 problems",
          lambda r: pool_summary()["total"] == 48),
    Claim("table2-target-port-12", "Table 2",
          "TargetPortMisconfig backs 12 problems",
          lambda r: _pool("TargetPortMisconfig") == 12),
    Claim("table2-revoke-auth-8", "Table 2", "RevokeAuth backs 8 problems",
          lambda r: _pool("RevokeAuth") == 8),
    Claim("table2-user-unregistered-8", "Table 2",
          "UserUnregistered backs 8 problems",
          lambda r: _pool("UserUnregistered") == 8),
    Claim("table2-network-loss-2", "Table 2", "NetworkLoss backs 2 problems",
          lambda r: _pool("NetworkLoss") == 2),
    Claim("table2-noop-2", "Table 2", "Noop backs the 2 probe problems",
          lambda r: _pool("Noop") == 2),

    Claim("table3-structured-beat-gpt4", "Table 3",
          "FLASH or ReAct is more accurate overall than GPT-4-W-SHELL",
          lambda r: max(_acc(r, "flash"), _acc(r, "react")) > _acc(r, GPT4)),
    Claim("table3-gpt35-collapses", "Table 3",
          "GPT-3.5-W-SHELL's overall accuracy is under two thirds of "
          "GPT-4-W-SHELL's",
          lambda r: _acc(r, GPT35) < _acc(r, GPT4) / 1.5),
    Claim("table3-gpt35-most-steps", "Table 3",
          "GPT-3.5-W-SHELL takes the most steps per problem",
          lambda r: r.results.mean("steps", GPT35)
          == max(r.results.mean("steps", a) for a in AGENT_NAMES)),
    Claim("table3-flash-slowest", "Table 3",
          "FLASH takes the most time per problem",
          lambda r: r.results.mean("duration_s", "flash")
          == max(r.results.mean("duration_s", a) for a in AGENT_NAMES)),

    Claim("table4a-flash-detects-all", "Table 4a",
          "FLASH answers every detection problem correctly",
          lambda r: _acc(r, "flash", "detection") == 1.0),
    Claim("table4a-llm-beat-mksmc", "Table 4a",
          "GPT-4-W-SHELL, ReAct and FLASH each detect better than MKSMC",
          lambda r: all(_acc(r, a, "detection")
                        > r.baselines["mksmc"]["accuracy"] for a in _CAPABLE)),
    Claim("table4b-llm-beat-pdiagnose", "Table 4b",
          "GPT-4-W-SHELL, ReAct and FLASH each localize (acc@3) better than "
          "PDiagnose",
          lambda r: all(_acc(r, a, "localization", 3)
                        > r.baselines["pdiagnose"]["accuracy"]
                        for a in _CAPABLE)),
    Claim("table4b-llm-beat-rmlad", "Table 4b",
          "GPT-4-W-SHELL, ReAct and FLASH each localize (acc@3) better than "
          "RMLAD",
          lambda r: all(_acc(r, a, "localization", 3)
                        > r.baselines["rmlad"]["accuracy"] for a in _CAPABLE)),
    Claim("table4b-acc3-ge-acc1", "Table 4b",
          "for the list submitters ReAct and FLASH, acc@3 ≥ acc@1",
          lambda r: all(_acc(r, a, "localization", 3)
                        >= _acc(r, a, "localization", 1)
                        for a in ("react", "flash"))),
    Claim("table4c-rca-hard", "Table 4c",
          "no agent exceeds 60% RCA accuracy",
          lambda r: all(_acc(r, a, "analysis") <= 0.60 for a in AGENT_NAMES)),
    Claim("table4c-gpt35-worst", "Table 4c",
          "GPT-3.5-W-SHELL has the lowest RCA accuracy",
          lambda r: _acc(r, GPT35, "analysis")
          == min(_acc(r, a, "analysis") for a in AGENT_NAMES)),
    Claim("table4d-gpt35-repairs-nothing", "Table 4d",
          "GPT-3.5-W-SHELL mitigates no problem",
          lambda r: _acc(r, GPT35, "mitigation") == 0.0),
    Claim("table4d-flash-leads", "Table 4d",
          "FLASH has the highest mitigation accuracy",
          lambda r: _best({a: _acc(r, a, "mitigation")
                           for a in AGENT_NAMES}) == "flash"),

    Claim("table5-mongo-used", "Table 5",
          "ReAct and FLASH reach for the mongo shell (through kubectl exec)",
          lambda r: sum(c["mongo"]
                        for c in command_counts(r.results).values()) > 0),
    Claim("table5-find-ip-unused", "Table 5",
          "neither ReAct nor FLASH ever runs find or ip",
          lambda r: all(c["find"] == 0 and c["ip"] == 0
                        for c in command_counts(r.results).values())),

    Claim("figure5-structured-improve", "Figure 5",
          "FLASH and ReAct are at least as accurate at K=20 as at K=3",
          lambda r: all(r.figure5[a][20] >= r.figure5[a][3]
                        for a in ("flash", "react"))),
    Claim("figure5-structured-best-at-20", "Figure 5",
          "the best accuracy at K=20 belongs to FLASH or ReAct",
          lambda r: _best({a: ks[20] for a, ks in r.figure5.items()})
          in ("flash", "react")),
    Claim("figure5-gpt35-plateaus", "Figure 5",
          "GPT-3.5-W-SHELL gains at most 0.25 accuracy from K=10 to K=20",
          lambda r: r.figure5[GPT35][20] - r.figure5[GPT35][10] <= 0.25),

    Claim("figure6-logs-dominant", "Figure 6",
          "get_logs is the most-used telemetry API of both ReAct and FLASH",
          lambda r: all(_best({api: mix[api] for api in TELEMETRY_APIS})
                        == "get_logs"
                        for mix in figure6_api_usage(r.results).values())),
    Claim("figure6-flash-no-traces", "Figure 6",
          "FLASH never calls get_traces",
          lambda r: figure6_api_usage(r.results)["flash"]["get_traces"] == 0.0),
    Claim("figure6-react-k8s", "Figure 6",
          "more than 20% of ReAct's actions are kubectl/helm commands",
          lambda r: figure6_api_usage(r.results)["react"]["K8S"] > 20.0),

    Claim("figure7-success-submits", "Figure 7",
          "successful cases spend a larger share of actions on submit than "
          "failed ones",
          lambda r: _share(r, "successful", "Submit")
          > _share(r, "failure", "Submit")),
    Claim("figure7-failure-grazes", "Figure 7",
          "failed cases spend at least as large a share on get_metrics and "
          "get_traces as successful ones",
          lambda r: _share(r, "failure", "get_metrics", "get_traces")
          >= _share(r, "successful", "get_metrics", "get_traces")),

    Claim("noop-gpt4-resists", "§3.6.4",
          "GPT-4-W-SHELL reports both healthy Noop systems as healthy",
          lambda r: r.noop_outcome[GPT4]),
    Claim("noop-others-false-positive", "§3.6.4",
          "at least two of the other three agents raise a false positive "
          "(paper: all three)",
          lambda r: sum(not ok for a, ok in r.noop_outcome.items()
                        if a != GPT4) >= 2),
)

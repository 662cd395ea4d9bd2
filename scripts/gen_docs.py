#!/usr/bin/env python
"""Generate the checked-in docs that mirror code-owned registries.

Four files are generated (and committed, so readers need no tooling):

* ``docs/api/actions.md`` — the Agent-Cloud Interface reference, rendered
  from the ``@action`` registry exactly as sessions render it for agents
  (``registry_for(task).render_docs()`` per task type);
* ``docs/api/shell.md`` — what ``exec_shell`` accepts: the policy's allowed
  binaries and deny patterns, and the kubectl / helm / file-tool grammar,
  rendered from the same tables the shell dispatches through and
  ``kubectl``'s usage text is printed from;
* ``docs/scenarios.md`` — the scenario-problem catalog behind
  ``repro.problems.scenario_pids()``: pid, hosted app(s), fidelity/rate,
  trigger kinds and the full fault timeline per scenario, plus the
  procedural generator's template space (axes × values, with sampled
  example recipes from the documented seed-0 pool);
* ``docs/claims.md`` — what this reproduction asserts about the paper:
  one row per ``repro.bench.claims.CLAIMS`` entry (id, paper section,
  statement) beside the paper's own numbers from ``report.PAPER``.

``--check`` regenerates in memory and exits non-zero if the committed
files are stale — the CI ``docs-check`` step runs exactly that, so the
docs can never drift from the registries they document.

Usage::

    PYTHONPATH=src python scripts/gen_docs.py [--check]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

from repro.bench.claims import CLAIMS  # noqa: E402
from repro.bench.report import paper_values  # noqa: E402
from repro.core import shell  # noqa: E402
from repro.core.aci import registry_for  # noqa: E402
from repro.core.problem import TASK_CLASSES  # noqa: E402
from repro.faults.triggers import (  # noqa: E402
    AfterEvent,
    AtTime,
    MetricTrigger,
)
from repro.kubesim.grammar import SHELL_OPERATORS, Flag  # noqa: E402
from repro.kubesim.kubectl import KINDS, VERBS  # noqa: E402
from repro.problems.scenarios import SCENARIOS  # noqa: E402

GENERATED_BANNER = (
    "<!-- GENERATED FILE — do not edit by hand.\n"
    "     Regenerate with: PYTHONPATH=src python scripts/gen_docs.py\n"
    "     CI's docs-check step fails when this file is stale. -->\n")


def render_actions_md() -> str:
    """The ACI reference, one section per task-type action surface."""
    out = [
        GENERATED_BANNER,
        "# Agent-Cloud Interface — action reference",
        "",
        "Every session shares these docs with the agent as the API part of",
        "its context `C` (auto-rendered from the `@action` registry by",
        "`registry_for(task).render_docs()`).  Actions marked for specific",
        "task types only appear on those tasks' surfaces.",
        "",
    ]
    for task in TASK_CLASSES:
        registry = registry_for(task)
        names = ", ".join(f"`{n}`" for n in registry.names())
        out.append(f"## {task} surface")
        out.append("")
        out.append(f"Actions: {names}")
        out.append("")
        out.append("```text")
        out.append(registry.render_docs())
        out.append("```")
        out.append("")
    return "\n".join(out)


def _render_flags(spec: dict[str, Flag]) -> str:
    """One verb's flag spec, each flag once with all its spellings."""
    out = []
    for flag in dict.fromkeys(spec.values()):
        text = "`" + ", ".join(flag.names) + "`"
        if flag.takes_value:
            text += " N" if flag.integer else " VALUE"
        notes = [note for note, on in (
            ("required", flag.required), ("repeatable", flag.repeated),
            ("accepted and ignored", flag.dest is None)) if on]
        out.append(text + (f" ({', '.join(notes)})" if notes else ""))
    return "; ".join(out) or "—"


def _render_verbs(binary: str, verbs: dict) -> list[str]:
    out = ["| command | resource kinds | flags |", "|---|---|---|"]
    for verb in {id(v): v for v in verbs.values()}.values():
        spellings = " / ".join(k for k, v in verbs.items() if v is verb)
        usage = "`" + " ".join(
            filter(None, [binary, spellings, verb.synopsis])) + "`"
        if verb.handler is None:
            usage = f"`{binary} {spellings}` {verb.synopsis}"
        out.append(f"| {usage.replace('|', chr(92) + '|')} "
                   f"| {', '.join(verb.kinds) or '—'} "
                   f"| {_render_flags(verb.flags)} |")
    return out


def render_shell_md() -> str:
    """What ``exec_shell`` accepts, from the tables it dispatches through."""
    out = [
        GENERATED_BANNER,
        "# `exec_shell` — command reference",
        "",
        "`exec_shell(command)` runs **one** command against the simulated",
        "environment.  The command is tokenized once (POSIX quoting), checked",
        "against the security policy, and dispatched through the tables",
        "below; anything they do not list is answered with an `error:` line",
        "naming the offending token — never guessed at, and a rejected",
        "command never changes the environment.",
        "",
        "## Security policy",
        "",
        "Allowed binaries: "
        + ", ".join(f"`{b}`" for b in sorted(shell.ALLOWED_BINARIES)) + ".",
        "Anything else is answered with `PolicyError:`, as is any command",
        "matching a deny pattern:",
        "",
        "| pattern | reason |",
        "|---|---|",
    ]
    for pattern, why in shell.DENY_PATTERNS:
        shown = pattern.pattern.replace("|", chr(92) + "|")
        out.append(f"| `{shown}` | {why} |")
    operators = " ".join(f"`{op}`" for op in sorted(SHELL_OPERATORS))
    out += [
        "",
        "There is no shell behind `exec_shell`: the bare operators",
        f"{operators} are rejected up front.".replace("|", chr(92) + "|"),
        "Use `grep`/`head`/`tail` on the files the telemetry actions export.",
        "",
        "## kubectl",
        "",
        "Flags may appear anywhere before a `--` (including before the",
        "verb); everything after `--` belongs to the container command.",
        "A target is `TYPE[/NAME] [NAME]` with `TYPE` any spelling below.",
        "",
        "### Resource kinds",
        "",
        "| kind | also spelled | namespaced | `get NAME` | `top` |",
        "|---|---|---|---|---|",
    ]
    for kind in KINDS.values():
        out.append(
            f"| {kind.name} | {', '.join(kind.aliases)} "
            f"| {'yes' if kind.namespaced else 'no'} "
            f"| {'yes' if kind.get else 'list only'} "
            f"| {'yes' if kind.top else '—'} |")
    out += ["", "### Verbs", ""]
    out += _render_verbs("kubectl", VERBS)
    out += ["", "## helm", ""]
    out += _render_verbs("helm", shell.HELM_VERBS)
    out += [
        "",
        "## File tools",
        "",
        "Read-only, and confined to the session's telemetry export",
        "directory (relative paths resolve against it).  `echo` prints its",
        "arguments.",
        "",
        "| tool | flags |",
        "|---|---|",
    ]
    for tool, spec in shell.FILE_TOOLS.items():
        out.append(f"| `{tool}` | {_render_flags(spec)} |")
    out.append("")
    return "\n".join(out)


def _trigger_kind(trigger) -> str:
    if isinstance(trigger, AtTime):
        return "time"
    if isinstance(trigger, MetricTrigger):
        return "metric"
    if isinstance(trigger, AfterEvent):
        return "chained"
    return type(trigger).__name__


def _scenario_rows() -> list[dict]:
    rows = []
    for row in SCENARIOS:
        kinds: list[str] = []
        timeline: list[str] = []
        for entry in row.timeline.entries:
            kind = _trigger_kind(entry.trigger)
            if entry.repeat != 1:
                kind = "repeating"
            if kind not in kinds:
                kinds.append(kind)
            times = "" if entry.repeat == 1 else (
                " ×∞" if entry.repeat == 0 else f" ×{entry.repeat}")
            timeline.append(
                f"{entry.trigger.describe()}{times}: {entry.describe()}")
        rows.append({
            "pid": row.pid,
            "task": row.task,
            "apps": " + ".join(s.app_cls.__name__ for s in row.apps),
            "fidelity": row.fidelity,
            "rate": row.apps[0].workload_rate,
            "kinds": "/".join(kinds) or "—",
            "timeline": timeline,
        })
    return rows


def _render_template_space() -> list[str]:
    """The procedural generator's axes, plus sampled seed-0 recipes."""
    from repro.problems import ScenarioGenerator, template_space
    from repro.problems.generator import SHAPES, describe_timeline

    out = [
        "## Procedural template space",
        "",
        "`repro.problems.generator.ScenarioGenerator` composes unlimited",
        "further scenarios from these axes (`generated_pool(n, seed)` /",
        "`scenario_pids(n=..., seed=...)`).  Every generated problem is",
        "deterministic in `(seed, index)`, carries an auto-derived grading",
        "spec, and is certified by the property suite in",
        "`tests/problems/test_generator.py` — arm-time validity, end-to-end",
        "sessions, fidelity-tier agreement and byte-identical replay.",
        "",
        "| axis | values |",
        "|---|---|",
    ]
    for axis, values in template_space().items():
        rendered = ", ".join(f"`{v}`" for v in values)
        out.append(f"| {axis} | {rendered} |")
    out.extend([
        "",
        "### Sampled recipes (seed 0)",
        "",
        "One example per trigger shape, drawn from the documented",
        "`generated_pool(200, seed=0)`:",
        "",
    ])
    gen = ScenarioGenerator(0)
    for shape in SHAPES:
        index = next(i for i in range(len(SHAPES) * 3)
                     if gen.spec(i).shape == shape)
        spec = gen.spec(index)
        apps = " + ".join([spec.app_name] + [n[0] for n in spec.neighbors])
        out.append(f"#### `{spec.pid}`")
        out.append("")
        out.append(f"- task {spec.task} · apps {apps} · {spec.fidelity} · "
                   f"{spec.policy} policy @ {spec.rate:g} rps")
        timeline = describe_timeline(spec)
        if timeline:
            out.extend(f"- {line}" for line in timeline)
        else:
            out.append("- (quiet: no scheduled timeline — detection "
                       "ground truth is \"no\")")
        out.append("")
    return out


def render_scenarios_md() -> str:
    """The scenario catalog: summary table plus per-scenario timelines."""
    rows = _scenario_rows()
    out = [
        GENERATED_BANNER,
        "# Scenario catalog",
        "",
        "Scheduled-fault scenario problems registered behind",
        "`repro.problems.scenario_pids()` — additive to (and excluded",
        "from) the paper-faithful 48-problem benchmark.  Each runs",
        "end-to-end via `Orchestrator.create_session(pid)`.",
        "",
        "| pid | task | app(s) | fidelity | rate (rps) | trigger kinds |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        out.append(
            f"| `{r['pid']}` | {r['task']} | {r['apps']} | {r['fidelity']} "
            f"| {r['rate']:g} | {r['kinds']} |")
    out.append("")
    out.append("## Timelines")
    out.append("")
    out.append("Entries as armed (arm time = end of the 30 s warmup);")
    out.append("`@namespace` marks the app an entry acts on, `×∞`/`×N` a")
    out.append("repeating (re-arming) metric entry.")
    out.append("")
    for r in rows:
        out.append(f"### `{r['pid']}`")
        out.append("")
        if r["timeline"]:
            out.extend(f"- {line}" for line in r["timeline"])
        else:
            out.append("- (no scheduled timeline)")
        out.append("")
    out.extend(_render_template_space())
    return "\n".join(out)


def render_claims_md() -> str:
    """The claims table: what ``benchmarks/test_claims.py`` asserts."""
    out = [
        GENERATED_BANNER,
        "# What this reproduction claims",
        "",
        "One row per entry of `repro.bench.claims.CLAIMS`.  Each is a",
        "predicate over the numbers of one evaluation run",
        "(`repro.bench.run_experiments`); `pytest benchmarks/test_claims.py`",
        "asserts all of them at `AIOPSLAB_BENCH_SEED` (default 0), and",
        "`python -m repro make-report` prints a held/FAILED verdict per row",
        "beside the measured tables.  The claims are *orderings* (who wins,",
        "what is hard), not the paper's absolute numbers, which are quoted",
        "for reference where the paper tabulates them.  How often each claim",
        "holds across seeds is not yet recorded.",
        "",
    ]
    for section in dict.fromkeys(claim.section for claim in CLAIMS):
        out += [f"## {section}", ""]
        paper = paper_values(section)
        if paper:
            out += [f"Paper (%) — {paper}.", ""]
        out += ["| id | claim |", "|---|---|"]
        out += [f"| `{claim.id}` | {claim.statement} |"
                for claim in CLAIMS if claim.section == section]
        out.append("")
    return "\n".join(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the committed files are current "
                             "instead of writing them")
    args = parser.parse_args()

    targets = {
        REPO / "docs" / "api" / "actions.md": render_actions_md(),
        REPO / "docs" / "api" / "shell.md": render_shell_md(),
        REPO / "docs" / "scenarios.md": render_scenarios_md(),
        REPO / "docs" / "claims.md": render_claims_md(),
    }
    stale = []
    for path, content in targets.items():
        if args.check:
            on_disk = path.read_text() if path.exists() else None
            if on_disk != content:
                stale.append(path)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            print(f"wrote {path.relative_to(REPO)}")
    if stale:
        names = ", ".join(str(p.relative_to(REPO)) for p in stale)
        raise SystemExit(
            f"stale generated docs: {names}\n"
            f"run: PYTHONPATH=src python scripts/gen_docs.py")
    if args.check:
        print("generated docs are current")


if __name__ == "__main__":
    main()

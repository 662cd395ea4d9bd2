"""The agents can still read what the simulator renders.

``agents/policy.py`` regex-parses observation text produced by
``kubesim/kubectl.py``, ``core/shell.py`` and ``core/aci.py``.  The golden
transcript pins the renderer and the policy tests pin the parser against
hand-written samples; this pins the two *to each other*: every compiled
pattern and every ``_SIGNATURES`` substring must match something the
simulator actually renders for some Table-2 fault — so a renderer edit that
blinds an agent fails here, naming the pattern, instead of as a shifted
accuracy.
"""

import re
from pathlib import Path

import pytest

from repro.agents import policy
from repro.core.aci import TaskActions
from repro.faults.library import FAULT_LIBRARY
from repro.problems import benchmark_pids, get_problem, noop_pids

PATTERNS = {name: value for name, value in vars(policy).items()
            if isinstance(value, re.Pattern)}
NEEDLES = [needle for needle, _ in policy._SIGNATURES]

#: the command shapes ``DiagnosticPolicy`` plans while investigating
PLANNED = (
    "kubectl get deployments -n {ns}",
    "kubectl get pods -n {ns}",
    "kubectl get endpoints -n {ns}",
    "kubectl get services -n {ns}",
    "kubectl describe deployment {target} -n {ns}",
    "kubectl get secret {target}-credentials -n {ns}",
    "helm list",
    "helm get values {release}",
)


def _fault_pids():
    """One problem per Table-2 fault (the Noop row: one healthy probe)."""
    pool = benchmark_pids()
    return [next((p for p in pool if p.startswith(spec.fault_key + "_")),
                 noop_pids()[0])
            for spec in FAULT_LIBRARY]


@pytest.fixture(scope="module")
def corpus() -> str:
    texts = [Path(__file__).parents[1].joinpath(
        "kubesim", "golden_shell.txt").read_text()]
    for pid in _fault_pids():
        problem = get_problem(pid)
        env = problem.prepare(seed=0)
        actions, ns = TaskActions(env), env.namespace
        target = problem.target or "frontend"
        overview = str(actions.get_logs(ns, "all"))
        # the policy drills into the services the overview lists as erroring
        erroring = [svc for svc, _ in policy._ERR_COUNT_RE.findall(overview)]
        texts += [overview,
                  *(str(actions.get_logs(ns, svc))
                    for svc in dict.fromkeys([target, *erroring])),
                  str(actions.get_metrics(ns, 5)),
                  str(actions.get_traces(ns, 5))]
        texts += [str(actions.exec_shell(command.format(
            ns=ns, target=target, release=env.app.release_name)))
            for command in PLANNED]
        env.close()
    return "\n".join(texts)


def test_the_policy_has_the_patterns_this_file_checks():
    assert len(PATTERNS) == 15 and len(NEEDLES) == 7


@pytest.mark.parametrize("name", PATTERNS)
def test_pattern_matches_rendered_text(name, corpus):
    assert PATTERNS[name].search(corpus), \
        f"policy.{name} = {PATTERNS[name].pattern!r} matches nothing the " \
        "simulator renders: the agents are blind to it"


@pytest.mark.parametrize("needle", NEEDLES)
def test_signature_appears_in_rendered_text(needle, corpus):
    assert needle in corpus, \
        f"_SIGNATURES needle {needle!r} appears in nothing the simulator " \
        "renders: the fault it classifies can no longer be recognised"

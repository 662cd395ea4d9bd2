"""Fuzz the whole ``exec_shell`` surface: any string in, text out.

Commands are composed from the grammar tables' own vocabulary (binaries,
verbs, kind spellings, listed and unlisted flags, live object names, JSON
fragments of every JSON type, shell operators) mixed with arbitrary text.
Run under ``HYPOTHESIS_PROFILE=ci`` for a derandomized, reproducible sweep.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import HotelReservation
from repro.core.actions import Observation
from repro.core.env import CloudEnvironment
from repro.core.aci import DEFAULT_REGISTRY
from repro.core.parser import ActionParseError, parse_action
from repro.core.shell import FILE_TOOLS, HELM_VERBS, ShellExecutor, ALLOWED_BINARIES
from repro.kubesim.grammar import SHELL_OPERATORS
from repro.kubesim.kubectl import KIND_BY_SPELLING, VERBS

NS = "test-hotel-reservation"
RELEASE = "hotel-reservation-release"


def _fresh_env() -> CloudEnvironment:
    env = CloudEnvironment(HotelReservation, seed=0)
    env.advance(10)
    env.exporter.export_logs(env.namespace)
    return env


@pytest.fixture(scope="module")
def env():
    env = _fresh_env()
    yield env
    env.close()


def _live_names() -> list[str]:
    env = _fresh_env()
    names = [p.name for p in env.cluster.pods_in(NS)][:4]
    names += [d.name for d in env.cluster.deployments_in(NS)][:6]
    env.close()
    return names + [NS, RELEASE, "mongodb-geo-credentials", "node-0", "ghost",
                    "logs", "logs/geo.log", "logs/all.jsonl", "/etc/passwd"]


SPECS = ([v.flags for v in VERBS.values()]
         + [v.flags for v in HELM_VERBS.values()] + list(FILE_TOOLS.values()))
LISTED_FLAGS = sorted({name for spec in SPECS for name in spec})
UNLISTED_FLAGS = ["--show-labels", "-l", "--all", "--field-selector",
                  "--context", "-x", "--dry-run=client", "-5", "--"]
VERB_WORDS = sorted({w for name in [*VERBS, *HELM_VERBS] for w in name.split()})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9999) | st.floats(
        allow_nan=False, allow_infinity=False) | st.sampled_from(
        ["x", "http", "", "geo", "node-404"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["spec", "replicas", "ports", "port", "targetPort",
                         "selector", "template", "containers", "name",
                         "image", "nodeName", "app"]), inner, max_size=4),
    max_leaves=12)
json_tokens = json_values.map(lambda v: "'" + json.dumps(v) + "'")

tokens = st.one_of(
    st.sampled_from(VERB_WORDS),
    st.sampled_from(sorted(KIND_BY_SPELLING)),
    st.sampled_from(_live_names()),
    st.sampled_from(LISTED_FLAGS + UNLISTED_FLAGS),
    st.sampled_from(sorted(SHELL_OPERATORS) + ["'", '"', "\\", "a=1", "a.b=2",
                                               "geo=img:v2", "*=img", "3",
                                               "-1", "deployment/geo",
                                               "pod/", "/", "svc/geo"]),
    st.sampled_from([f"{flag}={value}" for flag in ("--replicas", "--tail",
                                                    "--set", "-n", "-p")
                     for value in ("2", "x", "", "a=1", NS)]),
    json_tokens,
    st.text(max_size=12),
)
binaries = st.sampled_from(sorted(ALLOWED_BINARIES) + ["python3", "rm", ""])
#: near-well-formed commands, so the handlers behind the grammar get fuzzed
#: too (a random token soup rarely gets past the target parser)
SHAPES = [
    f"kubectl patch {{}} {{}} -n {NS} -p {{}}",
    f"kubectl patch deployment geo -n {NS} {{}} {{}} {{}}",
    f"kubectl patch svc/geo -n {NS} -p {{}} {{}} {{}}",
    f"kubectl scale {{}} {{}} --replicas {{}} -n {NS}",
    f"kubectl set image deployment/geo -n {NS} {{}} {{}} {{}}",
    f"kubectl rollout {{}} {{}} {{}} -n {NS}",
    f"kubectl delete {{}} {{}} {{}} -n {NS}",
    f"kubectl get {{}} {{}} {{}} -n {NS}",
    f"kubectl top {{}} {{}} {{}}",
    f"kubectl exec {{}} -n {NS} -- {{}} {{}}",
    f"kubectl exec {{}} -n {NS} -- mongo --eval {{}} {{}}",
    f"kubectl logs {{}} -n {NS} --tail {{}} {{}}",
    f"helm upgrade {RELEASE} --set {{}} --set {{}} {{}}",
    f"helm {{}} {RELEASE} {{}} {{}}",
    "head -n {} {} {}",
    "grep {} {} {}",
]
shaped = st.builds(lambda shape, a, b, c: shape.format(a, b, c),
                   st.sampled_from(SHAPES), tokens, tokens, tokens)
commands = st.one_of(
    st.builds(lambda b, ts: " ".join([b, *ts]), binaries,
              st.lists(tokens, max_size=8)),
    shaped, st.text(max_size=60))

READ_ONLY = ["kubectl get", "kubectl describe", "kubectl logs", "kubectl top",
             "kubectl rollout status", "helm list", "helm ls", "helm get",
             "helm get values", *sorted(FILE_TOOLS), "echo"]
read_only_commands = st.builds(
    lambda head, ts: " ".join([head, *ts]), st.sampled_from(READ_ONLY),
    st.lists(tokens, max_size=7))


def _mutable_state(env) -> tuple[int, int]:
    return env.cluster.state_version, env.helm.releases[RELEASE].revision


@given(command=commands)
@settings(max_examples=400)
def test_any_string_in_text_out(env, command):
    before = _mutable_state(env)
    out = ShellExecutor(env).run(command)
    assert isinstance(out, str)
    if not Observation.of(out).ok:
        assert _mutable_state(env) == before, (
            f"rejected command mutated: {command!r} -> {out!r}")


@given(command=read_only_commands)
@settings(max_examples=300)
def test_read_only_verbs_never_mutate(env, command):
    before = _mutable_state(env)
    assert isinstance(ShellExecutor(env).run(command), str)
    assert _mutable_state(env) == before, f"read-only mutated: {command!r}"


@given(sequence=st.lists(commands, min_size=1, max_size=5))
@settings(max_examples=40)
def test_same_seed_same_transcript(sequence):
    transcripts = []
    for _ in range(2):
        # two environments, two random export directories, one transcript
        env = _fresh_env()
        shell = ShellExecutor(env)
        transcripts.append([shell.run(c) for c in sequence])
        env.close()
    assert transcripts[0] == transcripts[1]


action_texts = st.one_of(
    st.text(max_size=80),
    st.builds(lambda name, args: f"{name}({', '.join(args)})",
              st.sampled_from([*DEFAULT_REGISTRY.names(), "nope", ""]),
              st.lists(st.one_of(
                  json_values.map(repr), json_values.map(json.dumps),
                  st.sampled_from(["ns=", "x=1", "{[]: 1}", "{{}}", "(", ")",
                                   "'", '"kubectl get pods"', "[" * 40,
                                   "1e999", "-", "lambda: 0", "a.b", "\x00"]),
                  st.text(max_size=10)), max_size=4)),
)


@given(text=action_texts)
@settings(max_examples=500)
def test_parse_action_raises_only_parse_errors(text):
    try:
        parsed = parse_action(text, DEFAULT_REGISTRY.names())
    except ActionParseError as e:
        assert str(e).startswith("Error:")
    else:
        assert parsed.name in DEFAULT_REGISTRY

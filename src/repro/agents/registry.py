"""Agent registry: name → scaffold/profile, plus the LoC metric of Table 3."""

from __future__ import annotations

import inspect

from repro.agents.base import AgentBase
from repro.agents.flash import FlashAgent
from repro.agents.gpt_shell import GptWithShellAgent
from repro.agents.react import ReactAgent

#: the four evaluated agents, in Table 3 order
AGENT_NAMES: tuple[str, ...] = (
    "gpt-4-w-shell", "gpt-3.5-w-shell", "react", "flash",
)

_SCAFFOLDS: dict[str, type[AgentBase]] = {
    "gpt-4-w-shell": GptWithShellAgent,
    "gpt-3.5-w-shell": GptWithShellAgent,
    "react": ReactAgent,
    "flash": FlashAgent,
    # ablation-only profiles (headroom / floor), not in AGENT_NAMES
    "oracle": GptWithShellAgent,
    "random": GptWithShellAgent,
}


def _scaffold(name: str) -> type[AgentBase]:
    try:
        return _SCAFFOLDS[name]
    except KeyError:
        raise KeyError(
            f"unknown agent {name!r}; available: {', '.join(AGENT_NAMES)}"
        ) from None


def build_agent(name: str, prob_desc: str, instructs: str, apis: str,
                task_type: str, seed: int = 0) -> AgentBase:
    """Instantiate a registered agent for one problem instance."""
    return _scaffold(name)(prob_desc, instructs, apis, task_type,
                           profile=name, seed=seed)


class _RegisteredAgentFactory:
    """Picklable :data:`repro.core.batch.AgentFactory` for one registered
    agent — a module-level class (not a closure) so ``SessionSpec``\\ s that
    carry it survive the trip to process-pool workers."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, context, task_type: str, seed: int) -> AgentBase:
        return build_agent(self.name, *context, task_type, seed=seed)

    def __repr__(self) -> str:
        return f"agent_factory({self.name!r})"

    def __reduce__(self):
        return (_RegisteredAgentFactory, (self.name,))


def agent_factory(name: str) -> _RegisteredAgentFactory:
    """An :data:`repro.core.batch.AgentFactory` for one registered agent —
    the glue between the agent registry and ``SessionSpec``.  The returned
    factory is picklable, so specs built from it work under the
    process-pool executor.  An unregistered ``name`` raises ``KeyError``
    here, before any session starts."""
    _scaffold(name)
    return _RegisteredAgentFactory(name)


def registration_loc(name: str) -> int:
    """Lines of code to register the agent in the framework (Table 3's LoC).

    Counted as the source lines of the agent's scaffold class beyond the
    shared base — the wrapper a user writes to onboard their agent.
    """
    scaffold = _SCAFFOLDS[name]
    own = len(inspect.getsource(scaffold).splitlines())
    base = len(inspect.getsource(AgentBase).splitlines())
    # The naive shell agents effectively re-use the base wrapper; their
    # registration cost is the base wrapper itself.
    if scaffold is GptWithShellAgent:
        return base - 20  # minus docstrings/blank padding of the base
    return own + 25  # scaffold plus the minimal wiring in user code


"""The four evaluated agents (§3.1) plus the LLM backend abstraction.

The agent *scaffolds* — prompt assembly, the ReAct thought/action loop,
FLASH's hindsight generation — are implemented for real; the next-token
oracle behind them is :class:`SimulatedLLM`, a grounded diagnostic policy
parameterized by a per-model :class:`ModelProfile` (see DESIGN.md for the
substitution rationale).  Any real LLM can be slotted in by implementing
:class:`LLMBackend`.
"""

from repro.agents.llm import (
    LLMBackend,
    LLMResponse,
    ModelProfile,
    SimulatedLLM,
    PROFILES,
)
from repro.agents.policy import Belief, DiagnosticPolicy, Diagnosis
from repro.agents.base import AgentBase
from repro.agents.gpt_shell import GptWithShellAgent
from repro.agents.react import ReactAgent
from repro.agents.flash import FlashAgent
from repro.agents.registry import (
    AGENT_NAMES,
    agent_factory,
    build_agent,
    registration_loc,
)

__all__ = [
    "LLMBackend",
    "LLMResponse",
    "ModelProfile",
    "SimulatedLLM",
    "PROFILES",
    "Belief",
    "DiagnosticPolicy",
    "Diagnosis",
    "AgentBase",
    "GptWithShellAgent",
    "ReactAgent",
    "FlashAgent",
    "AGENT_NAMES",
    "agent_factory",
    "build_agent",
    "registration_loc",
]

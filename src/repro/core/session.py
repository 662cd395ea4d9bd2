"""Session: one agent solving one problem, with full trajectory logging."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Step:
    """One agent↔cloud interaction."""

    index: int
    time: float
    action_raw: str          # the string the agent produced
    action_name: str         # parsed API name ("get_logs", "exec_shell", ...)
    action_args: tuple
    observation: str         # what the environment returned (agent-facing)
    valid: bool = True       # False when the action failed to parse/execute
    shell_command: str = ""  # first token of an exec_shell command, if any
    #: structured Observation extras (machine-readable result + exported
    #: artifact paths) for analytics/judges; empty for plain-string actions
    payload: dict = field(default_factory=dict)
    artifacts: tuple = ()


@dataclass
class Session:
    """Trajectory and accounting for one problem instance (§2.2.2)."""

    pid: str
    agent_name: str
    started_at: float = 0.0
    ended_at: Optional[float] = None
    steps: list[Step] = field(default_factory=list)
    input_tokens: int = 0
    output_tokens: int = 0
    solution: Any = None
    submitted: bool = False

    def elapsed(self) -> float:
        end = self.ended_at if self.ended_at is not None else self.started_at
        return max(end - self.started_at, 0.0)

    def add_step(self, step: Step) -> None:
        self.steps.append(step)

    def add_tokens(self, input_tokens: int, output_tokens: int) -> None:
        self.input_tokens += int(input_tokens)
        self.output_tokens += int(output_tokens)

    def transcript(self, max_obs_chars: int = 400) -> str:
        """Human-readable trajectory (for debugging and the LLM judge)."""
        lines = [f"# Session {self.pid} — agent {self.agent_name}"]
        for s in self.steps:
            obs = s.observation
            if len(obs) > max_obs_chars:
                obs = obs[:max_obs_chars] + " …[truncated]"
            lines.append(f"[{s.index}] t={s.time:.0f}s  {s.action_raw}")
            lines.append(f"    -> {obs}")
        if self.submitted:
            lines.append(f"submitted: {self.solution!r}")
        return "\n".join(lines)

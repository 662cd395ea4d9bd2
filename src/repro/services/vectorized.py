"""Numpy sampling kernels for the aggregate execution tier.

``ServiceRuntime.execute_many`` spends its time drawing samples: one
latency-sum per outcome branch, and per-span lognormal service times for
every exemplar request.  These kernels draw them as fused array operations
on the batch stream's underlying :class:`numpy.random.Generator` — one
``normal`` over all (op, branch) latency sums of a span, and one
``lognormal`` matrix per branch covering every exemplar at once.  See
``docs/design/fidelity.md`` for the batch stream's draw order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.services.profile import Outcome


class OutcomeKernel:
    """Precomputed sampling arrays for one compiled outcome branch.

    Built lazily from an :class:`~repro.services.profile.Outcome`'s span
    skeleton the first time the branch needs exemplars, then cached on the
    outcome — every input (each entered span's pressure-adjusted
    lognormal ``(mu, sigma)``) is in the skeleton itself, so the kernel is
    as shareable across sessions as the outcome is.
    """

    __slots__ = ("n_spans", "entered_idx", "const", "mu", "sigma", "acc")

    def __init__(self, outcome: "Outcome") -> None:
        spans = outcome.spans
        self.n_spans = len(spans)
        self.entered_idx = np.array(
            [i for i, sn in enumerate(spans) if sn.entered], dtype=np.intp)
        self.const = np.array([sn.const_ms for sn in spans])
        self.mu = np.array([spans[i].mu for i in self.entered_idx])
        self.sigma = np.array([spans[i].sigma for i in self.entered_idx])
        #: bottom-up subtree accumulation order: children are appended
        #: after their parent, so one reverse pass rolls entered spans up;
        #: failure stubs keep their fixed cost (same rule as the
        #: per-request path)
        self.acc = [(i, spans[i].parent)
                    for i in range(len(spans) - 1, 0, -1)
                    if spans[i].entered and spans[i].parent >= 0]

    def sample(self, gen, n_ex: int):
        """``(n_ex, n_spans)`` subtree-summed durations: one fused
        lognormal draw covers every exemplar's entered spans, then the
        reverse pass accumulates child subtrees into parents — vectorized
        across exemplars, so the per-span Python loop runs once per branch
        instead of once per exemplar."""
        out = np.empty((n_ex, self.n_spans))
        out[:, :] = self.const
        if len(self.entered_idx):
            out[:, self.entered_idx] = gen.lognormal(
                self.mu, self.sigma, size=(n_ex, len(self.entered_idx)))
        for i, parent in self.acc:
            out[:, parent] += out[:, i]
        return out


def branch_latency_sums(gen, locs: list, scales: list) -> list:
    """One fused draw of every branch's end-to-end latency sum.

    Each entry is the total latency of ``k`` iid requests on one outcome
    branch — normal-approximated with exact mean/variance (CLT shape),
    clamped at zero.
    """
    draws = gen.normal(np.asarray(locs), np.asarray(scales))
    return [max(float(d), 0.0) for d in np.atleast_1d(draws)]

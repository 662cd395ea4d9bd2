"""Deterministic, named random streams.

Each subsystem derives its own stream from a root seed and a label, so adding
randomness to one component never perturbs another (a classic simulation
reproducibility pitfall).
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable 63-bit child seed from ``(root_seed, label)``."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


class RngStream:
    """A labelled wrapper over :class:`numpy.random.Generator`.

    Provides the handful of distributions the simulators need, plus
    convenience helpers with validation.
    """

    def __init__(self, root_seed: int, label: str) -> None:
        self.label = label
        self.seed = derive_seed(root_seed, label)
        self._gen = np.random.default_rng(self.seed)

    def child(self, label: str) -> "RngStream":
        """Derive a sub-stream; children of the same parent are independent."""
        return RngStream(self.seed, f"{self.label}/{label}")

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator` — the bridge the
        vectorized sampling kernels draw through.

        Scalar helpers on this stream and vector draws on the generator
        consume the *same* bit stream, so a caller that mixes them is
        deterministic as long as its own call sequence is; engines that
        draw in different shapes (scalar loop vs fused array) produce
        different — but individually reproducible — sample sequences.
        """
        return self._gen

    # -- distributions -------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def random(self) -> float:
        return float(self._gen.random())

    def lognormal(self, mean: float, sigma: float) -> float:
        """Sample a lognormal: the value, and the generator state after,
        of ``exp(mean + sigma * generator.standard_normal())``, which is
        how the per-request walker draws a hop's service time."""
        return float(self._gen.lognormal(mean, sigma))

    def exponential(self, scale: float) -> float:
        if scale <= 0:
            raise ValueError(f"exponential scale must be > 0, got {scale}")
        return float(self._gen.exponential(scale))

    def normal(self, loc: float, scale: float) -> float:
        return float(self._gen.normal(loc, scale))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, seq, p=None):
        """Pick one element of ``seq`` (optionally weighted by ``p``)."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        idx = self._gen.choice(len(seq), p=p)
        return seq[int(idx)]

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p must be in [0,1], got {p}")
        return bool(self._gen.random() < p)

    def binomial(self, n: int, p: float) -> int:
        """Number of successes in ``n`` Bernoulli(p) trials."""
        if n < 0:
            raise ValueError(f"binomial n must be >= 0, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"binomial p must be in [0,1], got {p}")
        return int(self._gen.binomial(n, p))

    def multinomial(self, n: int, pvals) -> list[int]:
        """Split ``n`` trials across categories with probabilities ``pvals``."""
        if n < 0:
            raise ValueError(f"multinomial n must be >= 0, got {n}")
        return [int(c) for c in self._gen.multinomial(n, pvals)]

    def shuffle(self, seq: list) -> list:
        """Return a new shuffled copy of ``seq``."""
        out = list(seq)
        self._gen.shuffle(out)
        return out

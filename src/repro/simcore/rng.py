"""Deterministic, named random streams.

Each subsystem derives its own stream from a root seed and a label, so adding
randomness to one component never perturbs another (a classic simulation
reproducibility pitfall).
"""

from __future__ import annotations

import hashlib
from math import exp, log1p

import numpy as np

from repro.simcore.ziggurat_tables import FI, INV_R, KI, R, WI

#: raw words a :class:`WordBlock` draws at a time
BLOCK_WORDS = 256
#: the ziggurat's fast-path tables, indexed by a word's low nine bits (strip
#: ``bits & 0xff``, sign bit ``0x100``): ``KI`` twice, and ``WI`` with the
#: sign applied, as ``rabs * -w`` is exactly ``-(rabs * w)``
NORMAL_KI = KI + KI
NORMAL_WI = WI + tuple(-w for w in WI)
#: ``rabs``, a word's bits 9–60: ``word >> 9 & NORMAL_MASK``
NORMAL_MASK = 2**52 - 1


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


class WordBlock:
    """Raw 64-bit words read ahead from a PCG64 generator, for a reader that
    makes many small draws (the per-request walker) without a numpy call
    per draw.

    Opening saves the stream's state and draws :data:`BLOCK_WORDS` words.
    The reader takes ``words[at]`` in order and stores ``at`` back;
    :meth:`top_up` appends words in place.  :meth:`close` sets the stream
    to the saved state advanced by exactly ``at`` words, so the stream ends
    where one ``random_raw()`` per consumed word leaves it, whatever was
    read ahead.  On these words a coin of probability ``p`` is ``word <
    ceil(p·2^53) << 11`` and a standard normal is :meth:`normal`, each the
    draw the generator's own ``random() < p`` or ``standard_normal()``
    makes.
    """

    __slots__ = ("words", "at", "_bits", "_state")

    def __init__(self, generator: np.random.Generator) -> None:
        bits = self._bits = generator.bit_generator
        self._state = bits.state
        self.words: list[int] = bits.random_raw(BLOCK_WORDS).tolist()
        self.at = 0

    def top_up(self, at: int, n: int) -> None:
        """Make ``words`` hold at least ``n`` words from ``at`` on."""
        short = at + n - len(self.words)
        if short > 0:
            self.words.extend(
                self._bits.random_raw(max(short, BLOCK_WORDS)).tolist())

    def close(self) -> None:
        """Resync the stream to the words consumed (``at``)."""
        bits, state = self._bits, self._state
        bits.state = state
        bits.advance(self.at)
        if state["has_uint32"]:  # ``advance`` clears the 32-bit buffer
            bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                          "uinteger": state["uinteger"]}

    def normal(self) -> float:
        """The next standard normal, as ``Generator.standard_normal`` draws
        it from the same words: numpy's ziggurat fast path here, its
        rejection steps in :func:`normal_slow`.  (The walker inlines this
        fast path.)"""
        at = self.at
        self.top_up(at, 1)
        r = self.words[at]
        i = r & 0x1FF
        rabs = r >> 9 & NORMAL_MASK
        if rabs < NORMAL_KI[i]:
            self.at = at + 1
            return rabs * NORMAL_WI[i]
        x, self.at = normal_slow(self, at + 1, r, 0)
        return x


def normal_slow(block: WordBlock, at: int, r: int,
                need: int) -> tuple[float, int]:
    """Finish numpy's ``random_standard_normal`` for the word ``r``, read
    just before ``at``, whose fast test failed: the base strip's tail
    (strip 0) or the strip's wedge, then a fresh word, until one is
    accepted.  Returns the normal and the next unread position, with at
    least ``need`` words left after it in ``block.words``.  A uniform is
    ``(word >> 11)·2^-53``, PCG64's ``next_double``; the arithmetic is the
    compiled C's, operation for operation (no fused multiply-add)."""
    words = block.words
    while True:
        strip = r & 0xFF
        rabs = r >> 9 & NORMAL_MASK
        if strip == 0:
            while True:
                block.top_up(at, 2 + need)
                xx = -INV_R * log1p(-((words[at] >> 11) * 2.0**-53))
                yy = -log1p(-((words[at + 1] >> 11) * 2.0**-53))
                at += 2
                if yy + yy > xx * xx:
                    return (-(R + xx) if rabs >> 8 & 1 else R + xx), at
        block.top_up(at, 2 + need)
        x = rabs * NORMAL_WI[r & 0x1FF]
        u = (words[at] >> 11) * 2.0**-53
        at += 1
        if (FI[strip - 1] - FI[strip]) * u + FI[strip] < exp(-0.5 * x * x):
            return x, at
        r = words[at]
        at += 1
        i = r & 0x1FF
        rabs = r >> 9 & NORMAL_MASK
        if rabs < NORMAL_KI[i]:
            return rabs * NORMAL_WI[i], at

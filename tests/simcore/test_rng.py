import pytest
from hypothesis import given, settings, strategies as st

from repro.simcore import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=40))
    @settings(max_examples=50)
    def test_always_63_bit_nonnegative(self, seed, label):
        out = derive_seed(seed, label)
        assert 0 <= out < 2**63


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(5, "x")
        b = RngStream(5, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_labels_differ(self):
        a = RngStream(5, "x")
        b = RngStream(5, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_streams_independent_of_parent_consumption(self):
        """Drawing from a parent must not shift its children (isolation)."""
        parent1 = RngStream(9, "p")
        child_before = parent1.child("c").random()
        parent2 = RngStream(9, "p")
        _ = [parent2.random() for _ in range(100)]
        child_after = parent2.child("c").random()
        assert child_before == child_after

    def test_bernoulli_bounds_validated(self):
        rng = RngStream(0, "t")
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_bernoulli_extremes(self):
        rng = RngStream(0, "t")
        assert all(rng.bernoulli(1.0) for _ in range(20))
        assert not any(rng.bernoulli(0.0) for _ in range(20))

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0, "t").choice([])

    def test_choice_returns_member(self):
        rng = RngStream(0, "t")
        seq = ["a", "b", "c"]
        assert all(rng.choice(seq) in seq for _ in range(20))

    def test_choice_weighted_degenerate(self):
        rng = RngStream(0, "t")
        assert all(rng.choice(["a", "b"], p=[0.0, 1.0]) == "b" for _ in range(10))

    def test_integers_range(self):
        rng = RngStream(0, "t")
        assert all(0 <= rng.integers(0, 5) < 5 for _ in range(100))

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30)
    def test_lognormal_positive(self, scale):
        import math
        rng = RngStream(1, "t")
        assert rng.lognormal(math.log(scale), 0.5) > 0


class TestLognormalIdentity:
    """The per-request walker draws a hop's service time as
    ``exp(mu + sigma * standard_normal())`` on the generator itself: the
    same value, and the same generator state after, as
    ``Generator.lognormal(mu, sigma)``."""

    def test_equal_on_twin_generators(self):
        import math

        import numpy as np

        grid = np.random.default_rng(2024)
        mus = grid.uniform(-3.0, 7.0, size=60).tolist() + [0.0, math.log(0.1)]
        sigmas = grid.uniform(0.0, 2.0, size=60).tolist() + [0.0, 0.3]
        a, b = np.random.default_rng(17), np.random.default_rng(17)
        for mu, sigma in zip(mus, sigmas):
            for _ in range(50):
                assert a.lognormal(mu, sigma) == \
                    math.exp(mu + sigma * b.standard_normal())
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("sigma", [-0.5, -0.0])
    def test_negative_service_sigma_rejected(self, sigma):
        """A service whose latency sigma numpy's lognormal would reject is
        rejected by ``execute`` too, with the same error."""
        from tests.services.test_execute_many import OP, Deployed

        d = Deployed()
        d.app.services["search"].latency_sigma = sigma
        with pytest.raises(ValueError, match="sigma < 0"):
            d.runtime.execute(OP)


class TestZigguratPort:
    """``WordBlock.normal`` is numpy's ``random_standard_normal`` in Python,
    on raw words read ahead: every value bit for bit, and the generator
    where ``standard_normal`` leaves it once the block closes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_million_draws_bit_for_bit(self, seed, monkeypatch):
        import numpy as np

        from repro.simcore import rng

        entered = {"tail": 0, "wedge": 0}
        slow = rng.normal_slow

        def counting(block, at, r, need):
            entered["tail" if r & 0xFF == 0 else "wedge"] += 1
            return slow(block, at, r, need)

        monkeypatch.setattr(rng, "normal_slow", counting)
        ours, reference = np.random.default_rng(seed), \
            np.random.default_rng(seed)
        for _ in range(10):  # ten blocks of 100k: the list stays small
            block = rng.WordBlock(ours)
            drawn = np.array([block.normal() for _ in range(100_000)])
            block.close()
            expected = reference.standard_normal(100_000)
            assert np.array_equal(drawn.view(np.uint64),
                                  expected.view(np.uint64)), \
                f"numpy {np.__version__}"
            assert ours.bit_generator.state == reference.bit_generator.state
        # the base strip's tail and the wedges both ran, many times
        assert entered["tail"] > 100 and entered["wedge"] > 10_000, entered

    def test_tables_are_the_installed_numpys(self):
        """The committed tables are what ``scripts/gen_ziggurat.py`` reads
        from the installed numpy's ``libnpyrandom.a``."""
        import importlib.util
        from pathlib import Path

        import numpy as np

        script = Path(__file__).resolve().parents[2] / "scripts" \
            / "gen_ziggurat.py"
        spec = importlib.util.spec_from_file_location("gen_ziggurat", script)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        assert gen.OUT.read_text() == gen.render(gen.read_tables()), \
            f"numpy {np.__version__}: rerun scripts/gen_ziggurat.py"


class TestWordBlock:
    def test_close_resyncs_to_the_words_consumed(self):
        import numpy as np

        from repro.simcore.rng import BLOCK_WORDS, WordBlock

        ours, reference = np.random.default_rng(4), np.random.default_rng(4)
        block = WordBlock(ours)
        block.top_up(BLOCK_WORDS - 3, 10)  # past the first block
        assert len(block.words) == 2 * BLOCK_WORDS
        assert block.words[:BLOCK_WORDS + 7] == \
            reference.bit_generator.random_raw(BLOCK_WORDS + 7).tolist()
        block.at = BLOCK_WORDS + 7
        block.close()
        assert ours.bit_generator.state == reference.bit_generator.state
        assert ours.random() == reference.random()

    def test_close_keeps_the_32_bit_buffer(self):
        """``advance`` clears PCG64's buffered half-word; the block puts it
        back, so a 32-bit draw after a block takes what it would have."""
        import numpy as np

        from repro.simcore.rng import WordBlock

        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        for gen in (ours, reference):
            gen.integers(0, 10, dtype=np.uint32)  # buffers the other half
        assert ours.bit_generator.state["has_uint32"] == 1
        block = WordBlock(ours)
        block.at = 3
        block.close()
        reference.bit_generator.random_raw(3)
        assert ours.bit_generator.state == reference.bit_generator.state
        assert ours.integers(0, 2**32, dtype=np.uint32) == \
            reference.integers(0, 2**32, dtype=np.uint32)

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

    def test_exponential_scale_validated(self):
        with pytest.raises(ValueError):
            RngStream(0, "t").exponential(0.0)

    def test_integers_range(self):
        rng = RngStream(0, "t")
        assert all(0 <= rng.integers(0, 5) < 5 for _ in range(100))

    def test_shuffle_preserves_elements(self):
        rng = RngStream(0, "t")
        out = rng.shuffle([1, 2, 3, 4])
        assert sorted(out) == [1, 2, 3, 4]

    def test_shuffle_does_not_mutate_input(self):
        rng = RngStream(0, "t")
        original = [1, 2, 3, 4]
        rng.shuffle(original)
        assert original == [1, 2, 3, 4]

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

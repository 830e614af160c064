"""Tests for the shared utilities (seeding)."""

import numpy as np
import pytest

from repro.utils import SeedSequenceFactory, new_rng, seed_everything


class TestSeeding:
    def test_new_rng_deterministic(self):
        a = new_rng(42).random(5)
        b = new_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_new_rng_different_seeds(self):
        assert not np.array_equal(new_rng(1).random(5), new_rng(2).random(5))

    def test_seed_everything_returns_generator(self):
        rng = seed_everything(7)
        assert isinstance(rng, np.random.Generator)
        # legacy global generator is also seeded
        first = np.random.random()
        seed_everything(7)
        assert np.random.random() == pytest.approx(first)

    def test_seed_sequence_factory_streams_are_independent(self):
        factory = SeedSequenceFactory(3)
        a = factory.spawn().random(4)
        b = factory.spawn().random(4)
        assert not np.array_equal(a, b)

    def test_seed_sequence_factory_not_reproducible_within_instance_but_by_seed(self):
        first = SeedSequenceFactory(3).spawn().random(4)
        second = SeedSequenceFactory(3).spawn().random(4)
        np.testing.assert_array_equal(first, second)

"""Utility helpers: seeded RNG spawning."""

import numpy as np
import pytest

from repro.utils import seeded_rng, spawn_rngs


class TestRng:
    def test_seeded_rng_reproducible(self):
        assert seeded_rng(7).integers(0, 100, 5).tolist() == seeded_rng(7).integers(0, 100, 5).tolist()

    def test_spawn_rngs_are_independent(self):
        streams = spawn_rngs(3, 4)
        assert len(streams) == 4
        draws = [s.standard_normal(8) for s in streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_spawn_rngs_reproducible(self):
        a = spawn_rngs(11, 2)
        b = spawn_rngs(11, 2)
        assert np.allclose(a[0].standard_normal(4), b[0].standard_normal(4))

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)

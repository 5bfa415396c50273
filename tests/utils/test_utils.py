"""Utility helpers: seeded RNG spawning and scrambled Sobol draws."""

import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from repro.utils import seeded_rng, sobol_2d, spawn_rngs


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


class TestSobol2d:
    """``sobol_2d`` is a byte-exact numpy port of scipy's scrambled Sobol."""

    COUNTS = (1, 2, 3, 5, 64, 100, 224, 256, 1000)

    @pytest.mark.parametrize("seed", range(100))
    def test_bytes_equal_scipy(self, seed):
        for count in self.COUNTS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # non-power-of-2 counts
                expected = qmc.Sobol(d=2, scramble=True, seed=seed).random(count)
            points = sobol_2d(count, seed)
            assert points.dtype == expected.dtype and points.shape == expected.shape
            assert points.tobytes() == expected.tobytes(), f"count={count}"

    @pytest.mark.parametrize("count", [3, 100, 224])
    def test_prefix_of_the_power_of_two_draw(self, count):
        m = int(np.ceil(np.log2(count)))
        expected = qmc.Sobol(d=2, scramble=True, seed=4).random_base2(m)[:count]
        assert sobol_2d(count, 4).tobytes() == expected.tobytes()

    def test_no_warning_and_unit_square(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = sobol_2d(100, 9)
        assert points.shape == (100, 2)
        assert np.all((points >= 0.0) & (points < 1.0))
        assert sobol_2d(0, 9).shape == (0, 2)
        for count in (-1, 2**30 + 1):
            with pytest.raises(ValueError, match="count"):
                sobol_2d(count, 9)

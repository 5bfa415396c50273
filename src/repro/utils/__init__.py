"""Shared utilities: seeding and Sobol draws."""

from .rng import seeded_rng, sobol_2d, spawn_rngs

__all__ = ["seeded_rng", "spawn_rngs", "sobol_2d"]

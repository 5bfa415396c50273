"""Shared utilities: seeding."""

from .rng import seeded_rng, spawn_rngs

__all__ = ["seeded_rng", "spawn_rngs"]

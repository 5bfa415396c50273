"""Reproducible random number generation helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["seeded_rng", "spawn_rngs", "sobol_2d"]


def seeded_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a numpy Generator from an integer seed (``None`` = OS entropy)."""

    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed.

    Used to give every data-parallel rank (and every benchmark trial) its own
    stream without correlations.
    """

    if count <= 0:
        raise ValueError("count must be positive")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


#: bits of the Sobol generator: at most ``2**30`` points per sequence
_SOBOL_BITS = 30


def _sobol_directions() -> np.ndarray:
    """Unscrambled direction numbers of the first two Sobol dimensions.

    Dimension 0 is all ones; dimension 1 has primitive polynomial ``x + 1``
    (encoded 3) and initial value 1, so ``v[j] = v[j-1] ^ (v[j-1] << 1)``.
    Column ``j`` is then scaled by ``2**(bits-1-j)``.
    """

    v = np.ones((2, _SOBOL_BITS), dtype=np.uint64)
    for j in range(1, _SOBOL_BITS):
        v[1, j] = v[1, j - 1] ^ (v[1, j - 1] << np.uint64(1))
    return v << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS, dtype=np.uint64))


def sobol_2d(count: int, seed: int | None = None) -> np.ndarray:
    """The first ``count`` points of a scrambled 2-D Sobol sequence, ``(count, 2)``.

    A numpy port of scipy's ``qmc.Sobol(d=2, scramble=True, seed=seed)``
    (30 bits, LMS scrambling plus a digital shift): the result has the same
    bytes as ``Sobol(...).random(count)`` and as the first ``count`` rows of
    ``random_base2(ceil(log2(count)))``, without importing scipy's stats
    package (~0.4 s and ~33 MB).  Any ``count`` is accepted and none warns;
    only powers of two keep the sequence's balance properties.
    """

    bits = _SOBOL_BITS
    if not 0 <= count <= 2**bits:
        raise ValueError(f"count must be in [0, 2**{bits}], got {count}")
    rng = np.random.default_rng(seed)
    place = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    # Draw order as in scipy: the shift bits, then one lower-triangular
    # scrambling matrix per dimension (diagonal forced to 1).
    shift = rng.integers(2, size=(2, bits), dtype=np.uint32).astype(np.uint64) @ place
    ltm = np.tril(rng.integers(2, size=(2, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # Scrambled direction number j: bit p (from the most significant) is the
    # parity of row p of the matrix dotted with the bits of v[j], where
    # column 0 of a row is the most significant bit.
    msb_first = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    v_bits = (_sobol_directions()[:, :, None] >> msb_first) & np.uint64(1)
    parity = np.einsum("dpc,djc->djp", ltm.astype(np.int64), v_bits.astype(np.int64)) & 1
    directions = parity.astype(np.uint64) @ (np.uint64(1) << msb_first)
    # Point k is the shift xor the direction numbers at the set bits of the
    # Gray code of k: the order scipy's recurrence generates them in.
    index = np.arange(count, dtype=np.uint64)
    gray = index ^ (index >> np.uint64(1))
    quasi = np.repeat(shift[None, :], count, axis=0)
    for j in range(int(count).bit_length()):
        quasi ^= ((gray >> np.uint64(j)) & np.uint64(1))[:, None] * directions[:, j]
    return quasi.astype(np.uint32) * (1.0 / 2 ** bits)

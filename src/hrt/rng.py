"""Seeded, reproducible random number generation.

All randomness in the package flows through :class:`SeededRng`, a thin wrapper
around numpy's PCG64 generator. PCG64 is fully specified by its seed, so two
generators built from the same seed emit identical streams on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# PCG64 takes seeds in [0, SEED_BOUND)
SEED_BOUND = 1 << 64


def check_seed(seed: int) -> int:
    """``seed`` as an int; a ConfigError unless PCG64 takes it."""
    seed = int(seed)
    if not 0 <= seed < SEED_BOUND:
        raise ConfigError(f"seed {seed} is outside [0, 2**64)")
    return seed


class SeededRng:
    """Deterministic pseudorandom source backed by numpy's PCG64.

    The same seed always reproduces the same stream.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers in [low, high).  Nothing in the package draws them; the
        method stays because ``bench/run.py``'s ``RNG_DRAWS`` names it, and
        the benchmark resolves every draw it names."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        """``size`` items of range(n).  Kept, though the package draws none,
        for the same reason as :meth:`integers`."""
        return self._gen.choice(n, size=size, replace=replace)


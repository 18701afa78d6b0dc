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

    def integers(self, low: int, high: int | np.ndarray,
                 shape=()) -> np.ndarray:
        """Integers in [low, high).  An array ``high`` of shape ``shape``
        makes one bounded draw per element, in order.  With ``high`` from
        :func:`choice_bounds` these are the draws of as many
        ``choice(n, k, replace=False)`` calls, the subsets from
        :func:`choices_from_draws` equal theirs, and the stream ends where
        theirs would."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


# Generator.choice(n, k, replace=False) takes a sample with Floyd's algorithm
# and shuffles it with Fisher-Yates, or, for a large population and sample,
# shuffles the tail of arange(n).  Each step of either is one bounded draw.
def _tail_shuffled(n: int, k: int) -> bool:
    return n > 10000 and k > n // 50


def choice_bounds(n: int, k: int) -> np.ndarray:
    """The exclusive upper bounds of the draws one
    ``Generator.choice(n, k, replace=False)`` call makes, in order."""
    if _tail_shuffled(n, k):
        return np.arange(n, max(n - k, 1), -1)    # i + 1, i = n-1 ... n-k
    # Floyd: j + 1 for j = n-k ... n-1; the shuffle: i + 1 for i = k-1 ... 1
    return np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])


def choices_from_draws(draws: np.ndarray, n: int, k: int) -> np.ndarray:
    """The subsets [m, k] that m ``Generator.choice(n, k, replace=False)``
    calls return, from their draws [m, len(choice_bounds(n, k))]."""
    m = draws.shape[0]
    if _tail_shuffled(n, k):
        out = np.empty((m, k), dtype=np.int64)
        for row, steps in zip(out, draws.tolist()):
            pos = np.arange(n)
            for i, j in zip(range(n - 1, 0, -1), steps):
                pos[i], pos[j] = pos[j], pos[i]
            row[:] = pos[n - k:]
        return out
    out = draws[:, :k].copy()
    for t in range(1, k):
        # Floyd: a value chosen before becomes this step's j
        taken = (out[:, :t] == out[:, t:t + 1]).any(axis=1)
        out[taken, t] = n - k + t
    rows = np.arange(m)
    for i, j in zip(range(k - 1, 0, -1), draws[:, k:].T):
        # Fisher-Yates: position i swaps with the drawn position
        held = out[rows, j]
        out[rows, j] = out[:, i]
        out[:, i] = held
    return out

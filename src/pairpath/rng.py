"""Portable deterministic randomness for reproducible pairings.

Uses splitmix64 so that a recorded seed reproduces the identical pairing on
any platform or Python version; the stdlib Mersenne generator carries no such
cross-version guarantee for shuffles.
"""
from __future__ import annotations

from typing import MutableSequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """splitmix64 sequence generator; state advances by the 64-bit golden gamma."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _draw(self, k: int) -> np.ndarray:
        """The next k outputs, mixed at once in wrapping uint64 arithmetic."""
        steps = np.arange(1, k + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = (self._state + k * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def next_u64(self) -> int:
        return int(self._draw(1)[0])

    def randrange(self, bound: int) -> int:
        # modulo bias is below 2^-50 for any bound this package draws
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def shuffle(self, xs: MutableSequence) -> None:
        """In-place Fisher-Yates, high index down; the n-1 draws are made
        at once, and a list of 0 or 1 items draws nothing."""
        bounds = np.arange(len(xs), 1, -1, dtype=np.uint64)  # i + 1 per swap
        picks = self._draw(len(bounds)) % bounds
        for i, j in zip(range(len(xs) - 1, 0, -1), picks.tolist()):
            xs[i], xs[j] = xs[j], xs[i]


def random_permutation(n: int, seed: int) -> list[int]:
    xs = list(range(n))
    SplitMix64(seed).shuffle(xs)
    return xs

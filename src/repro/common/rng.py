"""Deterministic random number generation.

Every stochastic component (the workload generator, random replacement, the
DRAM bank-conflict jitter) takes an explicit :class:`DeterministicRng` so
that simulations are reproducible given a seed.  The class wraps
:class:`random.Random` and adds a few distributions the workload generator
needs (Zipf-like reuse distances and bounded geometric run lengths).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with helpers used across the simulator."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream; used per core / per workload."""
        return DeterministicRng((self.seed * 1000003 + salt) & 0xFFFFFFFF)

    # -- basic draws -------------------------------------------------------
    def uniform(self) -> float:
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    @property
    def getrandbits(self) -> Callable[[int], int]:
        """The generator's own ``getrandbits``, for a hot loop to bind once.

        ``choice(items)`` draws ``getrandbits(len(items).bit_length())``
        until the draw is below ``len(items)``, and indexes with it.  A hot
        loop that repeats that draw itself consumes the same sequence
        without a Python-level call per draw.
        """
        return self._random.getrandbits

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    # -- distributions -----------------------------------------------------
    def geometric(self, mean: float, maximum: Optional[int] = None) -> int:
        """A geometric draw with the given mean, at least 1."""
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        value = 1
        while not self.chance(p):
            value += 1
            if maximum is not None and value >= maximum:
                return maximum
        return value

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """An index in ``[0, n)`` drawn with a Zipf-like bias toward 0.

        Used to model temporal locality: small indices (recently used
        addresses) are much more likely than large ones.
        """
        if n <= 1:
            return 0
        # Inverse-CDF of a continuous approximation of the Zipf distribution.
        u = self._random.random()
        value = int(n ** u) - 1
        if value < 0:
            value = 0
        if value >= n:
            value = n - 1
        if skew != 1.0:
            scaled = int(value * skew)
            value = min(n - 1, scaled)
        return value

    def weighted_choice(self, items: Sequence[T],
                        weights: Sequence[float]) -> T:
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

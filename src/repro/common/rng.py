"""Deterministic random number generation.

Every stochastic component (the workload generator, random replacement, the
L2 training window) takes an explicit :class:`DeterministicRng` so that
simulations are reproducible given a seed.  The class wraps
:class:`random.Random`.  Its draw primitives are meant to be bound once by
a hot loop: each makes exactly the :class:`random.Random` draws of the
method it stands for, in at most one Python frame, so traces and results
do not depend on which of the two made them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from itertools import accumulate
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with the draws used across the simulator."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        self._getrandbits = self._random.getrandbits

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream; used per core / per workload."""
        return DeterministicRng((self.seed * 1000003 + salt) & 0xFFFFFFFF)

    # -- draw primitives ------------------------------------------------------
    @property
    def random(self) -> Callable[[], float]:
        """The generator's own ``random``: a uniform float in ``[0, 1)``."""
        return self._random.random

    @property
    def getrandbits(self) -> Callable[[int], int]:
        """The generator's own ``getrandbits``, for a hot loop to bind once.

        ``choice(items)`` draws ``getrandbits(len(items).bit_length())``
        until the draw is below ``len(items)``, and indexes with it.  A hot
        loop that repeats that draw itself consumes the same sequence
        without a Python-level call per draw.
        """
        return self._getrandbits

    def below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``.

        Makes the draws ``randrange(n)`` makes, and so those of
        ``randint(0, n - 1)`` and of ``choice`` over ``n`` items:
        ``getrandbits(n.bit_length())`` until the draw is below ``n``.
        """
        if n <= 0:
            raise ValueError(f"empty range for below({n})")
        getrandbits = self._getrandbits
        bits = n.bit_length()
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        return value

    def weighted(self, items: Sequence[T],
                 weights: Sequence[float]) -> Callable[[], T]:
        """A draw of one of ``items`` by weight, for a hot loop to bind once.

        Each call makes the draw ``choices(items, weights)`` makes: one
        ``random()``, scaled by the total weight and bisected into the
        cumulative weights, which are accumulated here, once.
        """
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        cumulative = list(accumulate(weights))
        total = cumulative[-1] + 0.0 if cumulative else 0.0
        if not 0.0 < total < math.inf:
            raise ValueError("the total weight must be positive and finite")
        items = tuple(items)
        last = len(items) - 1
        uniform = self._random.random

        def draw() -> T:
            return items[bisect(cumulative, uniform() * total, 0, last)]
        return draw

    # -- distributions -----------------------------------------------------
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

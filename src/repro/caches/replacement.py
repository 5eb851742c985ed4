"""Replacement policies for set-associative caches.

Three policies are provided: true LRU (the default, matching the gem5
classic caches used by the paper), random replacement, and tree pseudo-LRU.
A policy chooses a victim among the lines of one full set; the cache itself
fills the first empty way, if any, before the policy is consulted.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.caches.cache_line import CacheLine
from repro.common.params import REPLACEMENT_POLICIES
from repro.common.rng import DeterministicRng


class ReplacementPolicy:
    """Interface: pick a victim way among valid candidate lines."""

    def victim(self, set_index: int, lines: Sequence[CacheLine]) -> int:
        raise NotImplementedError

    def on_access(self, set_index: int, way: int, now: int) -> None:
        """Hook called on every hit/fill; most policies need nothing here."""


class LRUReplacement(ReplacementPolicy):
    """Evict the least recently used line (by the ``last_use`` timestamp)."""

    def victim(self, set_index: int, lines: Sequence[CacheLine]) -> int:
        oldest_way = 0
        oldest_time = lines[0].last_use
        for way, line in enumerate(lines):
            if line.last_use < oldest_time:
                oldest_time = line.last_use
                oldest_way = way
        return oldest_way


class RandomReplacement(ReplacementPolicy):
    """Evict a uniformly random line."""

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def victim(self, set_index: int, lines: Sequence[CacheLine]) -> int:
        return self._rng.below(len(lines))


class TreePLRUReplacement(ReplacementPolicy):
    """Tree pseudo-LRU, as commonly implemented in hardware.

    Maintains one bit per internal node of a binary tree over the ways of a
    set.  On an access, the bits along the path to the accessed way are set
    to point *away* from it; the victim is found by following the bits.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self._assoc = associativity
        self._tree_size = max(1, associativity - 1)
        self._trees: Dict[int, List[int]] = {}

    def _tree(self, set_index: int) -> List[int]:
        if set_index not in self._trees:
            self._trees[set_index] = [0] * self._tree_size
        return self._trees[set_index]

    def on_access(self, set_index: int, way: int, now: int) -> None:
        if self._assoc == 1:
            return
        tree = self._tree(set_index)
        node = 0
        low, high = 0, self._assoc
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                tree[node] = 1      # point away: next victim on the right
                node = 2 * node + 1
                high = mid
            else:
                tree[node] = 0      # point away: next victim on the left
                node = 2 * node + 2
                low = mid
            if node >= self._tree_size:
                break

    def victim(self, set_index: int, lines: Sequence[CacheLine]) -> int:
        if self._assoc == 1:
            return 0
        tree = self._tree(set_index)
        node = 0
        low, high = 0, self._assoc
        while high - low > 1:
            mid = (low + high) // 2
            if node < self._tree_size and tree[node] == 0:
                high = mid
                node = 2 * node + 1
            else:
                low = mid
                node = 2 * node + 2
        return low


def make_replacement_policy(name: str, associativity: int,
                            rng: DeterministicRng) -> ReplacementPolicy:
    """Factory used by the cache constructors; ``name`` is one of
    :data:`~repro.common.params.REPLACEMENT_POLICIES`."""
    policy = REPLACEMENT_POLICIES.get(name.lower())
    if policy == "lru":
        return LRUReplacement()
    if policy == "random":
        return RandomReplacement(rng)
    if policy == "plru":
        return TreePLRUReplacement(associativity)
    raise ValueError(f"unknown replacement policy: {name!r}")

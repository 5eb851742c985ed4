"""A snoop filter (sharer-tracking directory) for the shared LLC.

The paper notes that MuonTrap's filter-cache invalidation broadcast must be
timing-invariant even when a snoop filter is present, and that the broadcast
only needs to reach cores below a shared cache that could hold the line.
This module provides the sharer-tracking structure the coherence bus uses to
*skip* snoops of private caches that provably cannot hold a line, to scope
multicasts, and to keep snoop traffic statistics.

The directory is deliberately **conservative**: it records a core as a
potential sharer on every fill, but only removes it when the bus invalidates
every private cache of that core.  Silent (capacity) evictions inside a
private cache therefore leave the entry in place, so the tracked sharer set
is always a superset of the true holders — skipping a snoop when the set is
empty can never change what the snoop would have found.  If the directory
itself ever has to drop an entry for capacity, it marks itself *imprecise*
and the bus falls back to probing every cache, keeping results bit-identical
to a filterless bus.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Set

from repro.common.statistics import StatGroup


class SnoopFilter:
    """Tracks which cores may hold each line in a private cache."""

    def __init__(self, stats: Optional[StatGroup] = None,
                 max_entries: int = 64 * 1024) -> None:
        self.max_entries = max_entries
        self._sharers: Dict[int, Set[int]] = defaultdict(set)
        #: False once a capacity eviction has dropped an entry: from then on
        #: absence of an entry no longer proves absence of a copy, so the
        #: bus must stop trusting empty lookups.
        self.precise = True
        stats = stats or StatGroup("snoop_filter")
        self.stats = stats
        self._lookups = stats.counter("lookups")
        self._filtered = stats.counter("filtered_snoops")
        self._evictions = stats.counter("entry_evictions")

    def record_fill(self, core_id: int, line_address: int) -> None:
        """A core obtained a copy of the line."""
        if (line_address not in self._sharers
                and len(self._sharers) >= self.max_entries):
            # Capacity eviction: drop an arbitrary (oldest-inserted) entry.
            # The dropped line may still live in a private cache, so the
            # directory is no longer an over-approximation for it.
            victim = next(iter(self._sharers))
            del self._sharers[victim]
            self._evictions.value += 1
            self.precise = False
        self._sharers[line_address].add(core_id)

    def record_eviction(self, core_id: int, line_address: int) -> None:
        """Every private cache of ``core_id`` lost its copy of the line."""
        sharers = self._sharers.get(line_address)
        if sharers is None:
            return
        sharers.discard(core_id)
        if not sharers:
            del self._sharers[line_address]

    def sharers_of(self, line_address: int) -> Set[int]:
        self._lookups.value += 1
        return set(self._sharers.get(line_address, ()))

    def needs_snoop(self, requester: int, line_address: int) -> bool:
        """True when someone other than the requester may hold the line.

        Counts one lookup, as :meth:`sharers_of` does, but reads the stored
        sharer set in place instead of copying it.
        """
        self._lookups.value += 1
        sharers = self._sharers.get(line_address)
        if sharers and (len(sharers) > 1 or requester not in sharers):
            return True
        self._filtered.value += 1
        return False

    @property
    def filtered_snoops(self) -> int:
        return self._filtered.value

    def __len__(self) -> int:
        return len(self._sharers)

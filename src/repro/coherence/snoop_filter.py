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

Each entry is one int, the line's *sharer mask*: bit ``c`` is set when
core ``c`` may hold the line.  A tracked line's mask is never 0.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.common.statistics import StatGroup


class SnoopFilter:
    """Tracks which cores may hold each line in a private cache."""

    def __init__(self, stats: Optional[StatGroup] = None,
                 max_entries: int = 64 * 1024) -> None:
        self.max_entries = max_entries
        # Line address -> sharer mask, oldest-inserted line first.
        self._sharers: Dict[int, int] = {}
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
        sharers = self._sharers
        mask = sharers.get(line_address)
        if mask is None:
            mask = 0
            if len(sharers) >= self.max_entries:
                # Capacity eviction: drop an arbitrary (oldest-inserted)
                # entry.  The dropped line may still live in a private
                # cache, so the directory is no longer an
                # over-approximation for it.
                del sharers[next(iter(sharers))]
                self._evictions.value += 1
                self.precise = False
        sharers[line_address] = mask | 1 << core_id

    def record_eviction(self, core_id: int, line_address: int) -> None:
        """Every private cache of ``core_id`` lost its copy of the line."""
        mask = self._sharers.get(line_address)
        if mask is None:
            return
        mask &= ~(1 << core_id)
        if mask:
            self._sharers[line_address] = mask
        else:
            del self._sharers[line_address]

    def sharers_of(self, line_address: int) -> Set[int]:
        """The cores the directory tracks for the line.

        A read-only probe: unlike :meth:`needs_snoop`, it counts no lookup.
        """
        mask = self._sharers.get(line_address, 0)
        return {core for core in range(mask.bit_length()) if mask >> core & 1}

    def needs_snoop(self, requester: int, line_address: int) -> bool:
        """True when someone other than the requester may hold the line.

        Counts one lookup.
        """
        self._lookups.value += 1
        if self._sharers.get(line_address, 0) & ~(1 << requester):
            return True
        self._filtered.value += 1
        return False

    @property
    def filtered_snoops(self) -> int:
        return self._filtered.value

    def __len__(self) -> int:
        return len(self._sharers)

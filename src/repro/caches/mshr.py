"""Miss status holding registers.

Each cache has a small MSHR file (4 for the L1s and filter caches, 16 for
the L2 in Table 1).  Outstanding misses to the same line merge into one
entry.  A miss that finds the file full is stored at a delayed ready time,
when the earliest entry retires.  The miss itself is not charged the delay
(its caller discards what :meth:`MSHRFile.allocate` returns); only a later
merge into its entry pays it, through
:meth:`~repro.caches.base_cache.SetAssociativeCache.merge`.  Entries are
retired lazily based on the cycle at which their fill completes, so the
model needs no central event queue.

An entry is nothing but its line's *ready time*, the cycle its fill
completes: the file maps each outstanding line address to that int, and
:meth:`MSHRFile.lookup` and :meth:`MSHRFile.allocate` return it.  A merge
keeps the entry's ready time and is counted in :attr:`MSHRFile.merges`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

#: ``_min_ready`` of a file with no outstanding entry.
_NONE_OUTSTANDING = float("inf")


class MSHRFile:
    """A bounded set of outstanding misses for one cache."""

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.num_entries = num_entries
        # Outstanding line address -> the cycle its fill completes.
        self._entries: Dict[int, int] = {}
        # (ready_time, line_address) of every outstanding entry, as a heap,
        # so retiring takes the head instead of scanning the file.
        self._retire_order: List[Tuple[int, int]] = []
        self.full_stalls = 0
        self.merges = 0
        # The earliest ready_time of any outstanding entry (infinite when
        # none is outstanding): until ``now`` reaches it nothing can have
        # retired, so callers skip _expire altogether.
        self._min_ready = _NONE_OUTSTANDING

    def _expire(self, now: int) -> None:
        """Retire every entry whose fill has completed by ``now``."""
        entries = self._entries
        order = self._retire_order
        while order and order[0][0] <= now:
            del entries[heappop(order)[1]]
        self._min_ready = order[0][0] if order else _NONE_OUTSTANDING

    def lookup(self, line_address: int, now: int) -> Optional[int]:
        """The ready time of the line's in-flight miss, if it has one."""
        if now >= self._min_ready:
            self._expire(now)
        return self._entries.get(line_address)

    def allocate(self, line_address: int, now: int,
                 fill_latency: int) -> int:
        """Allocate (or merge into) an entry for a miss issued at ``now``.

        Returns the entry's ready time, the cycle the fill completes; a
        merge returns the outstanding entry's.  If the file is full the
        issue is delayed until the earliest entry retires, and the entry's
        ready time carries that delay.
        """
        if now >= self._min_ready:
            self._expire(now)
        entries = self._entries
        ready_time = entries.get(line_address)
        if ready_time is not None:
            self.merges += 1
            return ready_time
        issue_time = now
        if len(entries) >= self.num_entries:
            # Every outstanding entry is ready after ``now``, so the miss
            # issues when the earliest one retires; expiring at that cycle
            # retires it (and any entry ready at the same cycle).
            issue_time = self._min_ready
            self.full_stalls += 1
            self._expire(issue_time)
        ready_time = entries[line_address] = issue_time + fill_latency
        heappush(self._retire_order, (ready_time, line_address))
        if ready_time < self._min_ready:
            self._min_ready = ready_time
        return ready_time

    def occupancy(self, now: int) -> int:
        if now >= self._min_ready:
            self._expire(now)
        return len(self._entries)

"""Miss status holding registers.

Each cache has a small MSHR file (4 for the L1s and filter caches, 16 for
the L2 in Table 1).  Outstanding misses to the same line merge into one
entry; when the file is full, further misses stall and the access model
charges a structural-hazard penalty.  Entries are retired lazily based on
the cycle at which their fill completes, so the model needs no central event
queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

#: ``_min_ready`` of a file with no outstanding entry.
_NONE_OUTSTANDING = float("inf")


@dataclass(slots=True)
class MSHREntry:
    """One outstanding miss."""

    line_address: int
    issue_time: int
    ready_time: int
    merged_requests: int = 1


class MSHRFile:
    """A bounded set of outstanding misses for one cache."""

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.num_entries = num_entries
        self._entries: Dict[int, MSHREntry] = {}
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

    def lookup(self, line_address: int, now: int) -> Optional[MSHREntry]:
        """Return the in-flight entry for this line, if any."""
        if now >= self._min_ready:
            self._expire(now)
        return self._entries.get(line_address)

    def allocate(self, line_address: int, now: int,
                 fill_latency: int) -> MSHREntry:
        """Allocate (or merge into) an entry for a miss issued at ``now``.

        Returns the entry; callers read ``ready_time`` to learn when the
        fill completes.  If the file is full the issue is delayed until the
        earliest entry retires, modelling the structural stall.
        """
        if now >= self._min_ready:
            self._expire(now)
        entries = self._entries
        existing = entries.get(line_address)
        if existing is not None:
            existing.merged_requests += 1
            self.merges += 1
            return existing
        issue_time = now
        if len(entries) >= self.num_entries:
            # Every outstanding entry is ready after ``now``, so the miss
            # issues when the earliest one retires; expiring at that cycle
            # retires it (and any entry ready at the same cycle).
            issue_time = self._min_ready
            self.full_stalls += 1
            self._expire(issue_time)
        ready_time = issue_time + fill_latency
        entry = entries[line_address] = MSHREntry(line_address, issue_time,
                                                  ready_time)
        heappush(self._retire_order, (ready_time, line_address))
        if ready_time < self._min_ready:
            self._min_ready = ready_time
        return entry

    def occupancy(self, now: int) -> int:
        if now >= self._min_ready:
            self._expire(now)
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self.num_entries

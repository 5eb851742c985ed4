"""A region-based stream prefetcher (the shared-L2 prefetcher).

The L2's ``prefetcher="stride"`` setting builds this prefetcher.  Its
detector keys its table on the 4 KiB region an access falls into, not on
the PC, so it recognises sequential streams regardless of which static
instruction issued them.  This matches the stream/stride prefetchers
typically configured at the L2 in gem5 and is the prefetcher the paper's
commit-time-training results hinge on: wrong-path and mis-speculated
accesses land in arbitrary regions and at arbitrary points of a stream,
degrading the confidence of access-time training, whereas commit-time
training (section 4.6) arrives in program order and keeps the detector
locked on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.statistics import StatGroup
from repro.prefetch.base import Prefetcher, TrainingEvent


@dataclass
class StreamEntry:
    """Per-region detector state."""

    last_address: int
    stride: int = 0
    confidence: int = 0


class StreamPrefetcher(Prefetcher):
    """Detects strided streams within aligned memory regions."""

    def __init__(self, line_size: int = 64, region_bits: int = 12,
                 table_entries: int = 128, degree: int = 2, distance: int = 8,
                 confidence_threshold: int = 2,
                 stats: Optional[StatGroup] = None) -> None:
        super().__init__(line_size=line_size, stats=stats)
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self._line_mask = -line_size
        self.region_bits = region_bits
        self.table_entries = table_entries
        self.degree = degree
        self.distance = distance
        self.confidence_threshold = confidence_threshold
        self._table: Dict[int, StreamEntry] = {}
        self._insertions = self.stats.counter("stream_allocations")
        self._disruptions = self.stats.counter("stream_disruptions")

    def _propose(self, event: TrainingEvent) -> List[int]:
        address = event.address
        region = address >> self.region_bits
        entry = self._table.get(region)
        if entry is None:
            if len(self._table) >= self.table_entries:
                # Evict an arbitrary (oldest-inserted) region.
                self._table.pop(next(iter(self._table)))
            self._table[region] = StreamEntry(last_address=address)
            self._insertions.value += 1
            return []
        stride = address - entry.last_address
        entry.last_address = address
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            if entry.confidence > 0:
                self._disruptions.value += 1
            entry.confidence = max(0, entry.confidence - 1)
            if entry.confidence == 0:
                entry.stride = stride
        if entry.confidence < self.confidence_threshold or entry.stride == 0:
            return []
        candidates: List[int] = []
        line_mask = self._line_mask
        own_line = address & line_mask
        for ahead in range(1, self.degree + 1):
            target = address + entry.stride * (self.distance + ahead)
            if target < 0:
                continue
            line = target & line_mask
            if line != own_line and line not in candidates:
                candidates.append(line)
        return candidates

    def reset(self) -> None:
        self._table.clear()

    def entry_for_address(self, address: int) -> Optional[StreamEntry]:
        """Inspect the detector entry an address maps to (test helper)."""
        return self._table.get(address >> self.region_bits)

    @property
    def disruptions(self) -> int:
        return self._disruptions.value

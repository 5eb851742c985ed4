"""Translation lookaside buffers.

Table 1 specifies 64-entry, fully associative, split instruction/data TLBs.
A TLB maps (process, virtual page) to a physical frame; misses are resolved
by the hardware page-table walker.  The speculative *filter TLB* of
section 4.7 lives in :mod:`repro.tlb.filter_tlb`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.common.params import TLBConfig
from repro.common.statistics import StatGroup


class TLB:
    """A fully associative TLB with LRU replacement."""

    def __init__(self, config: Optional[TLBConfig] = None,
                 entries: Optional[int] = None,
                 stats: Optional[StatGroup] = None,
                 name: str = "tlb") -> None:
        self.config = config or TLBConfig()
        self.capacity = entries if entries is not None else self.config.entries
        if self.capacity <= 0:
            raise ValueError("TLB needs at least one entry")
        self.page_size = self.config.page_size
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page size must be a power of two")
        self._page_shift = self.page_size.bit_length() - 1
        # (process, virtual page) -> frame number, least recently used first.
        self._entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        stats = stats or StatGroup(name)
        self.stats = stats
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._evictions = stats.counter("evictions")
        self._flushes = stats.counter("flushes")

    def lookup(self, process_id: int, virtual_address: int) -> Optional[int]:
        """Return the frame translating ``virtual_address``, if cached."""
        tag = (process_id, virtual_address >> self._page_shift)
        frame = self._entries.get(tag)
        if frame is None:
            self._misses.value += 1
            return None
        self._entries.move_to_end(tag)
        self._hits.value += 1
        return frame

    def probe(self, process_id: int, virtual_address: int) -> Optional[int]:
        """Lookup without updating LRU or statistics (attack/test helper)."""
        return self._entries.get(
            (process_id, virtual_address >> self._page_shift))

    def insert(self, process_id: int, virtual_address: int,
               frame: int) -> None:
        """Install a translation, evicting the LRU entry when full."""
        tag = (process_id, virtual_address >> self._page_shift)
        entries = self._entries
        if tag in entries:
            entries.move_to_end(tag)
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
            self._evictions.value += 1
        entries[tag] = frame

    def flush(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._flushes.value += 1
        return dropped

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

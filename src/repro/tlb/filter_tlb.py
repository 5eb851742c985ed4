"""The speculative filter TLB (section 4.7).

Speculative translations must not evict non-speculative TLB entries,
otherwise an attacker can mount a prime-and-probe attack on the TLB itself.
MuonTrap therefore stores translations fetched by speculative instructions
in a small filter TLB; when the instruction commits, the translation is
moved into the non-speculative TLB, and the filter TLB is flushed on every
context switch exactly like the filter caches.
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import TLBConfig
from repro.common.statistics import StatGroup
from repro.tlb.tlb import TLB


class FilterTLB:
    """A small TLB holding only speculative translations."""

    def __init__(self, config: Optional[TLBConfig] = None,
                 main_tlb: Optional[TLB] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config or TLBConfig()
        if self.config.filter_entries < 1:
            raise ValueError(f"a filter TLB needs at least one entry, got "
                             f"tlb.filter_entries="
                             f"{self.config.filter_entries!r}")
        stats = stats or StatGroup("filter_tlb")
        self.stats = stats
        self._tlb = TLB(config=self.config, entries=self.config.filter_entries,
                        stats=stats.child("entries"), name="filter")
        self.main_tlb = main_tlb
        self._promotions = stats.counter("promotions",
                                         "translations committed to main TLB")
        self._flushes = stats.counter("flushes")

    def lookup(self, process_id: int, virtual_address: int) -> Optional[int]:
        return self._tlb.lookup(process_id, virtual_address)

    def probe(self, process_id: int, virtual_address: int) -> Optional[int]:
        return self._tlb.probe(process_id, virtual_address)

    def insert_speculative(self, process_id: int, virtual_address: int,
                           frame: int) -> None:
        """Record a translation performed on behalf of a speculative access."""
        self._tlb.insert(process_id, virtual_address, frame)

    def commit(self, process_id: int, virtual_address: int) -> bool:
        """Promote a speculative translation into the non-speculative TLB.

        Called when the instruction whose access required the translation
        commits.  Returns False if the translation has already been evicted
        from the filter TLB (the main TLB will simply re-walk on next use).
        """
        frame = self._tlb.probe(process_id, virtual_address)
        if frame is None:
            return False
        if self.main_tlb is not None:
            self.main_tlb.insert(process_id, virtual_address, frame)
        self._promotions.value += 1
        return True

    def flush(self) -> int:
        """Invalidate all speculative translations (context switch)."""
        self._flushes.value += 1
        return self._tlb.flush()

    def __len__(self) -> int:
        return len(self._tlb)

    @property
    def promotions(self) -> int:
        return self._promotions.value

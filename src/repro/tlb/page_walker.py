"""The hardware page-table walker.

On a TLB miss the walker resolves the translation from the per-process page
table.  The walk costs a fixed latency (several dependent memory accesses in
a real machine).  Under MuonTrap the walker's own cache fills go through the
filter cache, and translations triggered by speculative instructions are
installed only in the filter TLB; the committing instruction re-translates
(section 4.7), which this module models with the ``speculative`` flag of
:meth:`MMU.translate_address`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import TLBConfig
from repro.common.statistics import StatGroup
from repro.memory.page_table import AddressSpace
from repro.tlb.filter_tlb import FilterTLB
from repro.tlb.tlb import TLB


class PageTableWalker:
    """Resolves TLB misses against an :class:`AddressSpace`."""

    def __init__(self, config: Optional[TLBConfig] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config or TLBConfig()
        stats = stats or StatGroup("walker")
        self.stats = stats
        self._walks = stats.counter("walks")
        self._faults = stats.counter("faults")

    def walk(self, address_space: AddressSpace,
             virtual_address: int) -> Optional[int]:
        """Resolve one translation; returns the physical address or None."""
        self._walks.value += 1
        physical = address_space.translate(virtual_address, allocate=True)
        if physical is None:
            self._faults.value += 1
        return physical

    @property
    def walk_latency(self) -> int:
        return self.config.walk_latency

    # -- observability -------------------------------------------------------
    def attach_tracer(self, tracer, unit: str = "walker",
                      core: "Optional[int]" = None) -> None:
        """Emit a ``tlb walk`` trace event per page-table walk.

        The wrapper is an instance attribute shadowing the class method, so
        untraced walkers pay nothing (the zero-cost-when-disabled contract
        of :mod:`repro.telemetry`).  Events are stamped with the tracer's
        cycle cursor (walks carry no timestamp of their own).
        """
        emit = tracer.emit
        inner_walk = self.walk

        def walk(address_space: AddressSpace,
                 virtual_address: int) -> Optional[int]:
            physical = inner_walk(address_space, virtual_address)
            emit("tlb", "walk", core=core, address=virtual_address,
                 unit=unit, fault=physical is None)
            return physical

        self.walk = walk


class MMU:
    """Combines a TLB, an optional filter TLB and the page-table walker.

    This is the per-core translation path used by the memory systems: the
    data side and instruction side each instantiate one.
    """

    def __init__(self, config: Optional[TLBConfig] = None,
                 use_filter_tlb: bool = True,
                 stats: Optional[StatGroup] = None,
                 name: str = "mmu") -> None:
        self.config = config or TLBConfig()
        stats = stats or StatGroup(name)
        self.stats = stats
        self.tlb = TLB(config=self.config, stats=stats.child("tlb"))
        self.filter_tlb: Optional[FilterTLB] = None
        if use_filter_tlb:
            self.filter_tlb = FilterTLB(config=self.config, main_tlb=self.tlb,
                                        stats=stats.child("filter_tlb"))
        self.walker = PageTableWalker(config=self.config,
                                      stats=stats.child("walker"))
        # Hot-path views of the TLB tables: a main-TLB hit and a filter-TLB
        # promotion read and update them in place instead of going through
        # TLB.lookup / FilterTLB.commit / TLB.insert (same LRU order and
        # counters; see those methods).
        self._page_shift = self.tlb._page_shift
        self._page_offset_mask = self.tlb.page_size - 1
        self._tlb_entries = self.tlb._entries
        self._filter_entries = (self.filter_tlb._tlb._entries
                                if self.filter_tlb is not None else None)

    def translate_address(self, address_space: AddressSpace,
                          virtual_address: int,
                          speculative: bool = False
                          ) -> "tuple[Optional[int], int]":
        """Translate a virtual address for a (possibly speculative) access.

        Returns ``(physical_address, latency)``; the physical address is
        ``None`` on a page fault.  Non-speculative accesses fill the main
        TLB on a miss; speculative accesses fill only the filter TLB when
        one is present, leaving the non-speculative TLB untouched (section
        4.7).
        """
        process_id = address_space.process_id
        tag = (process_id, virtual_address >> self._page_shift)
        tlb = self.tlb
        entries = self._tlb_entries
        frame = entries.get(tag)
        if frame is not None:
            entries.move_to_end(tag)
            tlb._hits.value += 1
            return ((frame << self._page_shift)
                    + (virtual_address & self._page_offset_mask),
                    self.config.hit_latency)
        tlb._misses.value += 1
        if self.filter_tlb is not None:
            frame = self.filter_tlb.lookup(process_id, virtual_address)
            if frame is not None:
                return ((frame << self._page_shift)
                        + (virtual_address & self._page_offset_mask),
                        self.config.hit_latency)
        physical = self.walker.walk(address_space, virtual_address)
        if physical is None:
            return None, self.walker.walk_latency
        frame = physical >> self._page_shift
        if speculative and self.filter_tlb is not None:
            self.filter_tlb.insert_speculative(process_id, virtual_address,
                                               frame)
        else:
            tlb.insert(process_id, virtual_address, frame)
        return physical, self.walker.walk_latency

    def commit_translation(self, address_space: AddressSpace,
                           virtual_address: int) -> None:
        """Promote a speculative translation when its instruction commits.

        The filter-TLB entry, while it lasts, is copied into the main TLB
        (and stays in the filter TLB) as :meth:`FilterTLB.commit` does.
        Once it is gone, the paper re-translates at commit and the result
        lands directly in the non-speculative TLB.
        """
        if self.filter_tlb is None:
            return
        tag = (address_space.process_id, virtual_address >> self._page_shift)
        frame = self._filter_entries.get(tag)
        if frame is not None:
            self.filter_tlb._promotions.value += 1
        else:
            physical = address_space.translate(virtual_address, allocate=True)
            if physical is None:
                return
            frame = physical >> self._page_shift
        # TLB.insert, in place.
        entries = self._tlb_entries
        if tag in entries:
            entries.move_to_end(tag)
        elif len(entries) >= self.tlb.capacity:
            entries.popitem(last=False)
            self.tlb._evictions.value += 1
        entries[tag] = frame

    def context_switch(self) -> None:
        """Flush speculative translation state on a protection-domain switch."""
        if self.filter_tlb is not None:
            self.filter_tlb.flush()

    # -- observability -------------------------------------------------------
    def attach_tracer(self, tracer, unit: str = "mmu",
                      core: Optional[int] = None) -> None:
        """Trace this MMU's page-table walks (see
        :meth:`PageTableWalker.attach_tracer`)."""
        self.walker.attach_tracer(tracer, unit=unit, core=core)

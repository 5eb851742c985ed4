"""Address translation: the TLBs, the speculative filter TLB and the page walk.

Table 1 specifies 64-entry, fully associative, split instruction/data TLBs
with LRU replacement.  Each core's data side and instruction side has one
:class:`MMU`, which owns its main TLB, its optional filter TLB and its page
walk, and is the only code that reads or changes them.  A TLB maps
(process, virtual page) to a physical frame.  A translation that misses
both TLBs walks the process's page table at a fixed latency (several
dependent memory accesses in a real machine); the walk allocates a frame
on a page's first touch, so it always succeeds.

Section 4.7: speculative translations must not evict non-speculative TLB
entries, otherwise an attacker can mount a prime-and-probe attack on the
TLB itself.  MuonTrap therefore installs a translation walked for a
speculative access only in a small filter TLB.  When the instruction
commits, the translation is copied into the main TLB, and the filter TLB
is flushed on every protection-domain switch, like the filter caches.

Both TLBs key a (process, virtual page) pair by one int,
``process_id << 64 | virtual_page``.  Virtual addresses are 64-bit, so a
virtual page number is below ``2**64`` and no two pairs share a key,
whatever the process id.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.common.params import TLBConfig
from repro.common.statistics import StatGroup
from repro.memory.page_table import PageTableManager


class MMU:
    """One core's translation path for its data or its instruction side.

    The statistics keep the names of the structures they count:
    ``tlb.{hits,misses,evictions,flushes}``,
    ``filter_tlb.{promotions,flushes}``,
    ``filter_tlb.entries.{hits,misses,evictions,flushes}`` and
    ``walker.{walks,faults}``.  Nothing flushes the main TLB and no walk
    faults, so ``tlb.flushes`` and ``walker.faults`` stay 0.
    """

    def __init__(self, config: TLBConfig, page_tables: PageTableManager,
                 use_filter_tlb: bool = False,
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config
        self.page_tables = page_tables
        stats = stats or StatGroup("mmu")
        self.stats = stats
        self._page_shift = config.page_size.bit_length() - 1
        self._offset_mask = config.page_size - 1
        self._hit_latency = config.hit_latency
        self._walk_latency = config.walk_latency
        # Key of (process, virtual page) -> frame number, least recently
        # used first.
        self._tlb: "OrderedDict[int, int]" = OrderedDict()
        tlb_stats = stats.child("tlb")
        self._hits = tlb_stats.counter("hits")
        self._misses = tlb_stats.counter("misses")
        self._evictions = tlb_stats.counter("evictions")
        tlb_stats.counter("flushes")
        self._filter: "Optional[OrderedDict[int, int]]" = None
        if use_filter_tlb:
            if config.filter_entries < 1:
                raise ValueError(f"a filter TLB needs at least one entry, "
                                 f"got tlb.filter_entries="
                                 f"{config.filter_entries!r}")
            self._filter = OrderedDict()
            filter_stats = stats.child("filter_tlb")
            entry_stats = filter_stats.child("entries")
            self._filter_hits = entry_stats.counter("hits")
            self._filter_misses = entry_stats.counter("misses")
            self._filter_evictions = entry_stats.counter("evictions")
            self._filter_entry_flushes = entry_stats.counter("flushes")
            self._promotions = filter_stats.counter(
                "promotions", "translations committed to main TLB")
            self._filter_flushes = filter_stats.counter("flushes")
        walker_stats = stats.child("walker")
        self._walks = walker_stats.counter("walks")
        walker_stats.counter("faults")

    def translate(self, process_id: int, virtual_address: int,
                  speculative: bool) -> Tuple[int, int]:
        """Translate one access's address; returns ``(physical, latency)``.

        A hit in either TLB costs the TLB hit latency.  A miss in both
        walks the page table and fills the main TLB, except that a
        speculative access fills only the filter TLB when there is one,
        leaving the non-speculative TLB untouched.
        """
        page_shift = self._page_shift
        key = process_id << 64 | virtual_address >> page_shift
        table = self._tlb
        frame = table.get(key)
        if frame is not None:
            table.move_to_end(key)
            self._hits.value += 1
            return ((frame << page_shift)
                    + (virtual_address & self._offset_mask),
                    self._hit_latency)
        self._misses.value += 1
        filter_table = self._filter
        if filter_table is not None:
            frame = filter_table.get(key)
            if frame is not None:
                filter_table.move_to_end(key)
                self._filter_hits.value += 1
                return ((frame << page_shift)
                        + (virtual_address & self._offset_mask),
                        self._hit_latency)
            self._filter_misses.value += 1
        physical = self.walk(process_id, virtual_address)
        # The walked page is in neither table, so the fill only evicts.
        if speculative and filter_table is not None:
            if len(filter_table) >= self.config.filter_entries:
                filter_table.popitem(last=False)
                self._filter_evictions.value += 1
            filter_table[key] = physical >> page_shift
        else:
            if len(table) >= self.config.entries:
                table.popitem(last=False)
                self._evictions.value += 1
            table[key] = physical >> page_shift
        return physical, self._walk_latency

    def walk(self, process_id: int, virtual_address: int) -> int:
        """Walk the page table for one translation; returns the physical
        address.  The tracer's hook (see :meth:`attach_tracer`)."""
        self._walks.value += 1
        return self.page_tables.address_space(process_id).translate(
            virtual_address)

    def commit_translation(self, process_id: int,
                           virtual_address: int) -> int:
        """The physical address of a committing access; promotes its page.

        With a filter TLB, the page's filter-TLB entry, while it lasts, is
        copied into the main TLB (a promotion) and stays in the filter
        TLB.  Once it is gone, the paper re-translates at commit and the
        result lands directly in the main TLB.  Without a filter TLB the
        access filled the main TLB when it executed, so neither table
        changes here, not even its LRU order.  A frame that no TLB holds
        is read from the page table.  The access's translation at execute
        already counted its lookup and walk, so this counts neither and
        emits no ``tlb walk`` event.
        """
        page_shift = self._page_shift
        key = process_id << 64 | virtual_address >> page_shift
        table = self._tlb
        filter_table = self._filter
        frame = None
        if filter_table is not None:
            frame = filter_table.get(key)
            if frame is not None:
                self._promotions.value += 1
        if frame is None:
            frame = table.get(key)
            if frame is None:
                frame = self.page_tables.address_space(process_id).translate(
                    virtual_address) >> page_shift
        if filter_table is not None:
            if key in table:
                table.move_to_end(key)
            elif len(table) >= self.config.entries:
                table.popitem(last=False)
                self._evictions.value += 1
            table[key] = frame
        return (frame << page_shift) + (virtual_address & self._offset_mask)

    def context_switch(self) -> None:
        """Flush the filter TLB on a protection-domain switch."""
        if self._filter is not None:
            self._filter.clear()
            self._filter_flushes.value += 1
            self._filter_entry_flushes.value += 1

    # -- read-only probes (no LRU or statistics update) -----------------------
    def probe(self, process_id: int, virtual_address: int) -> Optional[int]:
        """The main TLB's frame for the page, if it holds one."""
        return self._tlb.get(
            process_id << 64 | virtual_address >> self._page_shift)

    def probe_filter(self, process_id: int,
                     virtual_address: int) -> Optional[int]:
        """The filter TLB's frame for the page, if it holds one."""
        if self._filter is None:
            return None
        return self._filter.get(
            process_id << 64 | virtual_address >> self._page_shift)

    def filter_occupancy(self) -> int:
        """How many translations the filter TLB holds (0 without one)."""
        return len(self._filter) if self._filter is not None else 0

    # -- observability -------------------------------------------------------
    def attach_tracer(self, tracer, unit: str = "mmu",
                      core: Optional[int] = None) -> None:
        """Emit a ``tlb walk`` trace event per page-table walk.

        The wrapper is an instance attribute shadowing :meth:`walk`, so
        untraced MMUs pay nothing (the zero-cost-when-disabled contract of
        :mod:`repro.telemetry`).  Events are stamped with the tracer's
        cycle cursor (walks carry no timestamp of their own); ``fault`` is
        always false, since a walk allocates on first touch.
        """
        emit = tracer.emit
        inner_walk = self.walk

        def walk(process_id: int, virtual_address: int) -> int:
            physical = inner_walk(process_id, virtual_address)
            emit("tlb", "walk", core=core, address=virtual_address,
                 unit=unit, fault=False)
            return physical

        self.walk = walk

"""The MuonTrap memory system (the paper's contribution, section 4).

One :class:`MuonTrapMemorySystem` serves all the cores of a simulated
machine.  Per core it owns a data filter cache, an instruction filter cache
and a filter TLB; underneath sits the shared non-speculative hierarchy
(private L1s, shared L2 with a stride prefetcher, MESI bus, DRAM).

Execute-time behaviour
    Speculative loads, stores-with-resolved-addresses and instruction
    fetches hit in the filter cache in one cycle or fill it from the
    hierarchy without touching any non-speculative cache.  Fills are always
    Shared; the ``SE`` pseudo-state is recorded when Exclusive would have
    been available.  Accesses that would disturb another core's private M/E
    line are NACKed and retried once non-speculative (section 4.5).

Commit-time behaviour
    The committed bit is set and the line written through to the L1
    (section 4.2); pending ``SE`` upgrades launch an asynchronous exclusive
    upgrade; a commit of a line the L2 or memory supplied trains the L2
    prefetcher (section 4.6); committed stores obtain ownership,
    broadcasting filter-cache invalidations when the line was not already
    private (the Figure 7 event).

Domain switches
    Context switches, system calls and sandbox entries flush the filter
    caches and the filter TLB by clearing their valid bits (section 4.3),
    right after the core's domain tracker records the switch; optionally
    the caches are also flushed on every misspeculation (section 4.9).
"""

from __future__ import annotations

from repro.common.params import CoreConfig, SystemConfig
from repro.common.statistics import StatGroup
from repro.core.filter_cache import SpeculativeFilterCache
from repro.core.frontend import CoreState, SchemeFrontend
from repro.cpu.interface import MemoryAccessResult


class MuonTrapMemorySystem(SchemeFrontend):
    """Filter caches + protected hierarchy implementing the full defence."""

    name = "muontrap"

    def __init__(self, config: SystemConfig, **kwargs) -> None:
        super().__init__(config, **kwargs)
        stats = self.stats
        self._committed_loads = stats.counter("committed_loads")
        self._committed_stores = stats.counter("committed_stores")
        self._store_broadcasts = stats.counter("store_filter_broadcasts")
        self._nack_retries = stats.counter("nack_retries")
        self._misspeculation_flushes = stats.counter("misspeculation_flushes")

    def _build_core(self, core_id: int, per_core: CoreConfig,
                    stats: StatGroup) -> CoreState:
        protection = per_core.protection
        data_filter = SpeculativeFilterCache(
            per_core.data_filter, stats=stats.child("data_filter"),
            name="data_filter")
        inst_filter = SpeculativeFilterCache(
            per_core.inst_filter, stats=stats.child("inst_filter"),
            name="inst_filter")
        core = super()._build_core(core_id, per_core, stats,
                                   filter_tlb=protection.filter_tlb)
        core.data_filter = data_filter
        core.inst_filter = inst_filter
        core.protection = protection
        core.fetch_memo_mask = -min(per_core.inst_filter.line_size,
                                    per_core.l1i.line_size,
                                    per_core.tlb.page_size)
        # Register the filter caches as targets of exclusive-upgrade
        # invalidation broadcasts (section 4.5).  Registration is what
        # makes the fabric multicast to this core (see
        # CoherenceBus.has_peer_filter_listeners), so it is gated on
        # the core's coherence protection: the "fcache only" ablation
        # deliberately leaves its filter unprotected.
        if protection.coherence_protection:
            self.hierarchy.bus.register_filter_listener(
                core_id, data_filter.invalidate_physical)
        return core

    # -- protection-domain switches (section 4.3) ---------------------------------
    def switch_to_process(self, core_id: int, process_id: int,
                          now: int = 0) -> None:
        super().switch_to_process(core_id, process_id, now)
        self._flush_core(core_id)

    def context_switch(self, core_id: int, now: int) -> None:
        super().context_switch(core_id, now)
        self._flush_core(core_id)

    def sandbox_entry(self, core_id: int, now: int) -> None:
        super().sandbox_entry(core_id, now)
        self._flush_core(core_id)

    def _flush_core(self, core_id: int) -> None:
        """Clear all speculative state once the core's domain has switched."""
        core = self._cores[core_id]
        core.fetch_memo = None
        protection = core.protection
        if protection.data_filter_cache and \
                protection.clear_on_context_switch:
            core.data_filter.flush()
        if protection.instruction_filter_cache and \
                protection.clear_on_context_switch:
            core.inst_filter.flush()
        if protection.filter_tlb:
            core.data_mmu.context_switch()
            core.inst_mmu.context_switch()

    # -- execute-time data path -----------------------------------------------------
    def _data_access(self, core_id: int, process_id: int,
                     virtual_address: int, now: int, *, speculative: bool,
                     is_store_prefetch: bool) -> MemoryAccessResult:
        core = self._cores[core_id]
        protection = core.protection
        physical, tlb_latency = core.data_mmu.translate(
            process_id, virtual_address, speculative)
        if not protection.data_filter_cache:
            # Ablation point "insecure L0 disabled entirely" is handled by the
            # baselines; with the data filter disabled we fall back to the
            # conventional L1 path.
            latency, hit_level = self.hierarchy.access(
                core_id, physical, now + tlb_latency, is_store=False,
                speculative=speculative,
                protect_coherence=protection.coherence_protection,
                train_prefetcher=not protection.commit_time_prefetch)
            return MemoryAccessResult(tlb_latency + latency, hit_level,
                                      hit_level == "nack")

        filter_cache = core.data_filter
        hit_latency = filter_cache.config.hit_latency
        if filter_cache.lookup(virtual_address, now,
                               process_id=process_id) is not None:
            return MemoryAccessResult(tlb_latency + hit_latency, "l0")
        # Filter miss: consult the L1 and below.  Serial lookup adds the
        # filter-cache cycle in front of the L1; the parallel-access
        # optimisation of section 6.5 overlaps the two.
        probe_penalty = 0 if protection.parallel_l1_access else hit_latency
        latency, hit_level, exclusive = self.hierarchy.read_for_filter(
            core_id, physical, now + tlb_latency + probe_penalty,
            speculative=speculative,
            protect_coherence=protection.coherence_protection,
            instruction=False,
            train_prefetcher_speculatively=not protection.commit_time_prefetch)
        latency += tlb_latency + probe_penalty
        if hit_level == "nack":
            # Reduced coherency speculation: retry once non-speculative.
            return MemoryAccessResult(latency, "nack", True)
        filter_cache.fill(virtual_address, physical, now + latency,
                          process_id=process_id,
                          committed=not speculative,
                          se_upgrade=exclusive and not is_store_prefetch,
                          fill_level=hit_level)
        return MemoryAccessResult(latency, hit_level)

    def load(self, core_id: int, process_id: int, virtual_address: int,
             now: int, *, speculative: bool) -> MemoryAccessResult:
        return self._data_access(core_id, process_id, virtual_address, now,
                                 speculative=speculative,
                                 is_store_prefetch=False)

    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool) -> MemoryAccessResult:
        # A speculative store may prefetch the line into the filter cache in
        # Shared state, but must not obtain exclusive ownership until commit
        # (section 4.1 / 4.5).
        return self._data_access(core_id, process_id, virtual_address, now,
                                 speculative=speculative,
                                 is_store_prefetch=True)

    # -- execute-time instruction path -------------------------------------------------
    def fetch(self, core_id: int, process_id: int, virtual_address: int,
              now: int, *, speculative: bool) -> MemoryAccessResult:
        core = self._cores[core_id]
        core.fetch_memo = None
        protection = core.protection
        physical, tlb_latency = core.inst_mmu.translate(
            process_id, virtual_address, speculative)
        if not protection.instruction_filter_cache:
            latency, hit_level = self.hierarchy.access(
                core_id, physical, now + tlb_latency, instruction=True,
                speculative=speculative, train_prefetcher=False)
            return MemoryAccessResult(tlb_latency + latency, hit_level)
        filter_cache = core.inst_filter
        probe_penalty = filter_cache.config.hit_latency
        if filter_cache.lookup(virtual_address, now,
                               process_id=process_id) is not None:
            return MemoryAccessResult(tlb_latency + probe_penalty, "l0i")
        latency, hit_level, _ = self.hierarchy.read_for_filter(
            core_id, physical, now + tlb_latency + probe_penalty,
            speculative=speculative, protect_coherence=False,
            instruction=True)
        latency += tlb_latency + probe_penalty
        filter_cache.fill(virtual_address, physical, now + latency,
                          process_id=process_id, committed=not speculative,
                          se_upgrade=False, fill_level=hit_level)
        return MemoryAccessResult(latency, hit_level)

    # -- commit-time ------------------------------------------------------------------
    def commit_load(self, core_id: int, process_id: int, virtual_address: int,
                    now: int) -> int:
        """Write-through-at-commit for a load (section 4.2); returns 0 cycles.

        The write-through and any SE upgrade are asynchronous, so commit is
        never stalled by the memory system under MuonTrap (section 4.5,
        "Wider Implications").
        """
        self._committed_loads.value += 1
        core = self._cores[core_id]
        protection = core.protection
        physical = core.data_mmu.commit_translation(process_id,
                                                    virtual_address)
        if not protection.data_filter_cache:
            return 0
        line = core.data_filter.mark_committed(virtual_address, now)
        if line is not None:
            fill_level = line.fill_level
            exclusive = line.se_upgrade_pending
            line.se_upgrade_pending = False
            self.hierarchy.commit_fill_l1(core_id, physical, now,
                                          exclusive=exclusive
                                          and protection.coherence_protection,
                                          instruction=False)
        else:
            # The line was evicted from the filter cache before commit: a
            # valid in-order execution would have cached it, so re-request it
            # into the L1 asynchronously (sections 4.2 and 4.10).
            fill_level = "l2"
            self.hierarchy.commit_fill_l1(core_id, physical, now,
                                          exclusive=False, instruction=False,
                                          asynchronous_reload=True)
        if protection.commit_time_prefetch and fill_level in (
                "l2", "memory"):
            self.hierarchy.notify_commit_prefetch(
                self.hierarchy.line_address(physical), now)
        return 0

    def commit_store(self, core_id: int, process_id: int, virtual_address: int,
                     now: int) -> int:
        """A committed store obtains ownership and writes through to the L1."""
        self._committed_stores.value += 1
        core = self._cores[core_id]
        protection = core.protection
        physical = core.data_mmu.commit_translation(process_id,
                                                    virtual_address)
        latency, hit_level, broadcast = self.hierarchy.commit_store(
            core_id, physical, now,
            broadcast_to_filters=protection.coherence_protection)
        if broadcast:
            self._store_broadcasts.value += 1
        if protection.data_filter_cache:
            line = core.data_filter.mark_committed(virtual_address, now)
            if line is not None:
                line.se_upgrade_pending = False
        if protection.commit_time_prefetch and hit_level in ("l2", "memory"):
            self.hierarchy.notify_commit_prefetch(
                self.hierarchy.line_address(physical), now)
        # Ownership acquisition happens in the store buffer; only charge the
        # L1 portion against commit bandwidth.
        return min(latency, self.hierarchy.l1d(core_id).config.hit_latency)

    def commit_fetch(self, core_id: int, process_id: int,
                     virtual_address: int, now: int) -> None:
        """Commit an instruction: promote its translation, set its inst
        filter line's committed bit and write the line through to the L1I.

        Most calls repeat the previous one's process and line.  Only
        ``fetch``, ``_flush_core`` and a misspeculation flush touch the
        instruction-side MMU, the inst filter or the L1I between two
        commits (no snoop, broadcast or data-side access reaches them), and
        each clears the memo.  So a repeat finds the page mapped, the main
        TLB entry already most recent, the committed bit set and the L1I
        holding the line: all it changes is the inst filter line's LRU
        stamp and, when the first call promoted, ``filter_tlb.promotions``
        (the filter TLB still holds the page, so it promotes again).
        """
        core = self._cores[core_id]
        memo = core.fetch_memo
        if (memo is not None and memo[0] == process_id
                and memo[1] == virtual_address & core.fetch_memo_mask):
            if memo[2]:
                core.inst_mmu.commit_translation(process_id, virtual_address)
            if memo[3]:
                core.inst_filter.mark_committed(virtual_address, now)
            return
        mmu = core.inst_mmu
        # The commit promotes exactly when the filter TLB holds the page.
        promoted = mmu.probe_filter(process_id, virtual_address) is not None
        physical = mmu.commit_translation(process_id, virtual_address)
        line = None
        if core.protection.instruction_filter_cache:
            line = core.inst_filter.mark_committed(virtual_address, now)
            if line is not None:
                # Read-only data: no upgrade transaction is needed (section
                # 4.7).
                self.hierarchy.commit_fill_l1(core_id, physical, now,
                                              exclusive=False,
                                              instruction=True)
        core.fetch_memo = (process_id, virtual_address & core.fetch_memo_mask,
                           promoted, line is not None)

    # -- control events ------------------------------------------------------------------
    def squash(self, core_id: int, now: int) -> None:
        """Misspeculation: optionally clear the filter caches (section 4.9)."""
        core = self._cores[core_id]
        protection = core.protection
        if not protection.clear_on_misspeculate:
            return
        self._misspeculation_flushes.value += 1
        if protection.data_filter_cache:
            core.data_filter.flush()
        if protection.instruction_filter_cache:
            core.inst_filter.flush()
            core.fetch_memo = None

    # -- statistics ------------------------------------------------------------------------
    @property
    def committed_stores(self) -> int:
        return self._committed_stores.value

    @property
    def store_filter_broadcasts(self) -> int:
        return self._store_broadcasts.value

    def filter_invalidate_rate(self) -> float:
        """Figure 7: proportion of committed stores needing a broadcast."""
        if not self._committed_stores.value:
            return 0.0
        return self._store_broadcasts.value / self._committed_stores.value


# -- scheme registration ------------------------------------------------------
from repro.schemes import SchemeSpec, _register_builtin

_register_builtin(SchemeSpec(
    name="muontrap",
    factory=MuonTrapMemorySystem,
    display_name="MuonTrap",
    description="The paper's contribution: speculative filter caches with "
                "timing-invariant coherence protection.",
    timing_invariant=True,
    supports_filter_caches=True,
    figure_series=True,
    builtin=True))

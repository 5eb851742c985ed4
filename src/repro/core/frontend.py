"""The per-core scheme frontend every built-in memory system derives from.

In the paper MuonTrap is a per-core speculative front end over an
unchanged non-speculative hierarchy, and so are the InvisiSpec and STT
baselines it is compared with.  :class:`SchemeFrontend` owns what all of
them share:

* the configuration, statistics, page tables and the cores it serves
  (``core_ids``), over a
  :class:`~repro.caches.hierarchy.NonSpeculativeHierarchy` it builds
  itself unless a heterogeneous machine passes its shared one in;
* one :class:`CoreState` per served core, built by :meth:`_build_core`:
  data and instruction MMUs over the shared page tables, a
  protection-domain tracker, the optional L0 slots and the optional
  per-core protection switches;
* the unprotected instruction fetch and the protection-domain control
  events.

A scheme subclasses it and adds only its own load, store and commit
logic, translating through ``core.data_mmu.translate`` and
``core.inst_mmu.translate``.  At commit it takes the access's physical
address from the same MMU's ``commit_translation``, which also promotes
a filter-TLB entry; no scheme reads the page tables itself.  The tracer
and the metrics sampler read :class:`CoreState` directly, so every
subclass gets per-core page-walk and L0 events and L0 occupancy gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.caches.hierarchy import NonSpeculativeHierarchy
from repro.common.params import CoreConfig, ProtectionConfig, SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.core.domains import DomainTracker
from repro.core.filter_cache import SpeculativeFilterCache
from repro.cpu.interface import MemoryAccessResult, MemorySystem
from repro.memory.page_table import PageTableManager
from repro.tlb.mmu import MMU


@dataclass
class CoreState:
    """One core's frontend structures."""

    data_mmu: MMU
    inst_mmu: MMU
    domains: DomainTracker
    #: The L0 caches in front of the L1s (MuonTrap's filter caches, the
    #: insecure-L0 ablation's plain L0s); None when the scheme has none.
    data_filter: Optional[SpeculativeFilterCache] = None
    inst_filter: Optional[SpeculativeFilterCache] = None
    #: The core's own ablation switches: on a heterogeneous machine two
    #: MuonTrap cores may enable different subsets of the mechanisms.
    protection: Optional[ProtectionConfig] = None
    #: MuonTrap's same-line ``commit_fetch`` memo: ``(process, line,
    #: promoted, found)`` of the last call, or None once the instruction
    #: side may have changed (see MuonTrapMemorySystem.commit_fetch).
    fetch_memo: Optional[tuple] = None
    #: The address bits that memo's ``line`` keeps: the smallest of the
    #: instruction filter line, the L1I line and the page.
    fetch_memo_mask: int = -1


class SchemeFrontend(MemorySystem):
    """Per-core translation and domain state over one shared hierarchy."""

    def __init__(self, config: SystemConfig,
                 page_tables: Optional[PageTableManager] = None,
                 stats: Optional[StatGroup] = None,
                 rng: Optional[DeterministicRng] = None,
                 hierarchy: Optional[NonSpeculativeHierarchy] = None,
                 core_ids: Optional[Sequence[int]] = None) -> None:
        self.config = config
        self.stats = stats = stats or StatGroup(self.name.replace("-", "_"))
        self.page_tables = (page_tables if page_tables is not None
                            else PageTableManager(
                                page_size=config.tlb.page_size))
        # A heterogeneous machine passes in the shared hierarchy and the
        # subset of cores this frontend serves; stand-alone use builds its
        # own hierarchy and serves every core.
        self.hierarchy = (hierarchy if hierarchy is not None
                          else NonSpeculativeHierarchy(
                              config, stats=stats.child("hierarchy"),
                              rng=rng or DeterministicRng(0)))
        self.core_ids = (list(core_ids) if core_ids is not None
                         else list(range(config.num_cores)))
        self._cores: Dict[int, CoreState] = {
            core_id: self._build_core(core_id, config.core_config(core_id),
                                      stats.child(f"core{core_id}"))
            for core_id in self.core_ids}

    def _build_core(self, core_id: int, per_core: CoreConfig,
                    stats: StatGroup, filter_tlb: bool = False) -> CoreState:
        """One core's MMUs and domain tracker; schemes extend the state."""
        return CoreState(
            data_mmu=MMU(per_core.tlb, self.page_tables,
                         use_filter_tlb=filter_tlb, stats=stats.child("dmmu")),
            inst_mmu=MMU(per_core.tlb, self.page_tables,
                         use_filter_tlb=filter_tlb, stats=stats.child("immu")),
            domains=DomainTracker(core_id=core_id,
                                  stats=stats.child("domains")))

    # -- per-core state ------------------------------------------------------
    def core_state(self, core_id: int) -> CoreState:
        return self._cores[core_id]

    def domains(self, core_id: int) -> DomainTracker:
        return self._cores[core_id].domains

    def data_filter(self, core_id: int) -> Optional[SpeculativeFilterCache]:
        return self._cores[core_id].data_filter

    def inst_filter(self, core_id: int) -> Optional[SpeculativeFilterCache]:
        return self._cores[core_id].inst_filter

    # -- execute-time ----------------------------------------------------------
    def fetch(self, core_id: int, process_id: int, virtual_address: int,
              now: int, *, speculative: bool) -> MemoryAccessResult:
        """An unprotected fetch: even wrong-path fetches fill the L1I."""
        physical, tlb_latency = self._cores[core_id].inst_mmu.translate(
            process_id, virtual_address, speculative)
        latency, hit_level = self.hierarchy.access(
            core_id, physical, now + tlb_latency, instruction=True,
            speculative=speculative, train_prefetcher=False)
        return MemoryAccessResult(tlb_latency + latency, hit_level)

    # -- control events ----------------------------------------------------------
    def switch_to_process(self, core_id: int, process_id: int,
                          now: int = 0) -> None:
        """Explicit context switch to a named process (attack framework)."""
        self._cores[core_id].domains.context_switch(to_process=process_id)

    def context_switch(self, core_id: int, now: int) -> None:
        domains = self._cores[core_id].domains
        domains.context_switch(to_process=domains.current.process_id + 1)

    def sandbox_entry(self, core_id: int, now: int) -> None:
        self._cores[core_id].domains.sandbox_entry(sandbox_id=1)

    def drain(self, core_id: int, now: int) -> None:
        """End of run: deliver prefetcher-training events still buffered."""
        self.hierarchy.flush_speculative_training(now)

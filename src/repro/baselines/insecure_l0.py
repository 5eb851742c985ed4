"""The insecure-L0 ablation point of Figures 8 and 9.

This system puts the same small, 1-cycle L0 cache in front of the L1 as
MuonTrap does, but with none of the protections: the L0 is filled by every
access (speculative or not), its contents survive protection-domain
switches, lines propagate to the L1 immediately on fill (normal inclusive
behaviour), and the prefetcher trains speculatively.  It isolates the pure
performance effect of adding a level-0 cache from the cost of the security
mechanisms.
"""

from __future__ import annotations

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import CoreConfig
from repro.common.statistics import StatGroup
from repro.core.filter_cache import SpeculativeFilterCache
from repro.core.frontend import CoreState
from repro.cpu.interface import MemoryAccessResult


class InsecureL0MemorySystem(UnprotectedMemorySystem):
    """Unprotected hierarchy plus an ordinary (insecure) L0 cache per core."""

    name = "insecure-l0"

    def _build_core(self, core_id: int, per_core: CoreConfig,
                    stats: StatGroup) -> CoreState:
        # The L0s live in the frontend's filter slots, so the tracer and
        # the metrics sampler see them; their statistics keep the
        # data_l0/inst_l0 names.
        core = super()._build_core(core_id, per_core, stats)
        core.data_filter = SpeculativeFilterCache(
            per_core.data_filter, stats=stats.child("data_l0"),
            name="data_l0")
        core.inst_filter = SpeculativeFilterCache(
            per_core.inst_filter, stats=stats.child("inst_l0"),
            name="inst_l0")
        return core

    # -- execute-time -----------------------------------------------------------
    def load(self, core_id: int, process_id: int, virtual_address: int,
             now: int, *, speculative: bool) -> MemoryAccessResult:
        return self._through_l0(core_id, process_id, virtual_address, now,
                                speculative, instruction=False,
                                is_store=False)

    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool) -> MemoryAccessResult:
        return self._through_l0(core_id, process_id, virtual_address, now,
                                speculative, instruction=False,
                                is_store=True)

    def fetch(self, core_id: int, process_id: int, virtual_address: int,
              now: int, *, speculative: bool) -> MemoryAccessResult:
        return self._through_l0(core_id, process_id, virtual_address, now,
                                speculative, instruction=True,
                                is_store=False)

    def _through_l0(self, core_id: int, process_id: int,
                    virtual_address: int, now: int, speculative: bool, *,
                    instruction: bool, is_store: bool) -> MemoryAccessResult:
        """Look up the L0; on a miss, take the unprotected path after the
        serial L0 lookup and fill the L0 with the line and the translation
        that path made."""
        core = self._cores[core_id]
        if instruction:
            l0, mmu, l0_level = core.inst_filter, core.inst_mmu, "l0i"
        else:
            l0, mmu, l0_level = core.data_filter, core.data_mmu, "l0"
        hit_latency = l0.config.hit_latency
        if l0.lookup(virtual_address, now, process_id=process_id) is not None:
            return MemoryAccessResult(hit_latency, l0_level)
        physical, tlb_latency = mmu.translate(process_id, virtual_address,
                                              speculative)
        latency, hit_level = self.hierarchy.access(
            core_id, physical, now + hit_latency + tlb_latency,
            is_store=is_store, speculative=speculative,
            instruction=instruction)
        latency += tlb_latency
        l0.fill(virtual_address, physical, now + latency,
                process_id=process_id, committed=True, fill_level=hit_level)
        return MemoryAccessResult(hit_latency + latency, hit_level)


# -- scheme registration ------------------------------------------------------
from repro.schemes import SchemeSpec, _register_builtin

_register_builtin(SchemeSpec(
    name="insecure-l0",
    factory=InsecureL0MemorySystem,
    display_name="Insecure-L0",
    description="MuonTrap's L0 geometry with none of its protections "
                "(the ablation baseline of Figures 8 and 9).",
    supports_filter_caches=True,
    builtin=True))

"""The unprotected baseline memory system.

This is the insecure system every result in the paper is normalised to:
speculative (including wrong-path) loads, stores-with-resolved-addresses and
instruction fetches fill the L1 caches immediately, train the L2 prefetcher
immediately, and speculative stores may obtain exclusive ownership early.
Nothing is cleared on protection-domain switches, which is exactly why all
six attacks succeed against it.
"""

from __future__ import annotations

from repro.common.params import SystemConfig
from repro.core.frontend import SchemeFrontend
from repro.cpu.interface import MemoryAccessResult


class UnprotectedMemorySystem(SchemeFrontend):
    """Conventional hierarchy with no speculation-related protections."""

    name = "unprotected"

    def __init__(self, config: SystemConfig, **kwargs) -> None:
        super().__init__(config, **kwargs)
        self._committed_stores = self.stats.counter("committed_stores")

    # -- execute-time ----------------------------------------------------------
    def load(self, core_id: int, process_id: int, virtual_address: int,
             now: int, *, speculative: bool) -> MemoryAccessResult:
        physical, tlb_latency = self._cores[core_id].data_mmu.translate(
            process_id, virtual_address, speculative)
        latency, hit_level = self.hierarchy.access(
            core_id, physical, now + tlb_latency, speculative=speculative)
        return MemoryAccessResult(tlb_latency + latency, hit_level)

    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool) -> MemoryAccessResult:
        # An unprotected system issues the read-for-ownership prefetch as
        # soon as the store's address is known, even speculatively.  This is
        # the behaviour SpectrePrime-style attacks exploit.
        physical, tlb_latency = self._cores[core_id].data_mmu.translate(
            process_id, virtual_address, speculative)
        latency, hit_level = self.hierarchy.access(
            core_id, physical, now + tlb_latency, is_store=True,
            speculative=speculative)
        return MemoryAccessResult(tlb_latency + latency, hit_level)

    # -- commit-time -------------------------------------------------------------
    def commit_store(self, core_id: int, process_id: int, virtual_address: int,
                     now: int) -> int:
        self._committed_stores.value += 1
        physical = self._cores[core_id].data_mmu.commit_translation(
            process_id, virtual_address)
        latency, _, _ = self.hierarchy.commit_store(
            core_id, physical, now, broadcast_to_filters=False)
        return min(latency, self.hierarchy.l1d(core_id).config.hit_latency)


# -- scheme registration ------------------------------------------------------
from repro.schemes import SchemeSpec, _register_builtin

_register_builtin(SchemeSpec(
    name="unprotected",
    factory=UnprotectedMemorySystem,
    display_name="Unprotected",
    description="The conventional hierarchy with no speculative-execution "
                "defence (the paper's baseline).",
    builtin=True))

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

from typing import Callable

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
             now: int, *, speculative: bool, pc: int = 0
             ) -> MemoryAccessResult:
        return self._through_l0(self._cores[core_id].data_filter, "l0",
                                super().load, core_id, process_id,
                                virtual_address, now, speculative, pc)

    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool, pc: int = 0
                            ) -> MemoryAccessResult:
        return self._through_l0(self._cores[core_id].data_filter, "l0",
                                super().store_address_ready, core_id,
                                process_id, virtual_address, now,
                                speculative, pc)

    def fetch(self, core_id: int, process_id: int, virtual_address: int,
              now: int, *, speculative: bool, pc: int = 0
              ) -> MemoryAccessResult:
        return self._through_l0(self._cores[core_id].inst_filter, "l0i",
                                super().fetch, core_id, process_id,
                                virtual_address, now, speculative, pc)

    def _through_l0(self, l0: SpeculativeFilterCache, hit_level: str,
                    unprotected: Callable[..., MemoryAccessResult],
                    core_id: int, process_id: int,
                    virtual_address: int, now: int, speculative: bool,
                    pc: int) -> MemoryAccessResult:
        """Look up the L0; on a miss, take the ``unprotected`` path after
        the serial L0 lookup and fill the L0 with what it returns."""
        hit_latency = l0.config.hit_latency
        if l0.lookup(virtual_address, now, process_id=process_id) is not None:
            return MemoryAccessResult(hit_latency, hit_level)
        result = unprotected(core_id, process_id, virtual_address,
                             now + hit_latency, speculative=speculative,
                             pc=pc)
        physical = self.page_tables.address_space(process_id).translate(
            virtual_address)
        l0.fill(virtual_address, physical, now + result.latency,
                process_id=process_id, committed=True,
                fill_level=result.hit_level)
        return MemoryAccessResult(hit_latency + result.latency,
                                  result.hit_level)


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

"""System construction.

Builds a complete simulated machine — memory system plus one out-of-order
core per hardware context — for any protection mode and configuration.  The
protection mode determines which memory system is instantiated; the
MuonTrap ablation points of Figures 8 and 9 are expressed through the
:class:`~repro.common.params.ProtectionConfig` carried by the system
configuration.

Multi-core machines come in two topologies.  The historical one puts every
core's private L1s directly on the shared L2.  Co-run systems (built from
:func:`~repro.common.params.corun_system_config`) additionally give each
hardware context a private unified L2, so each core owns a full private
hierarchy — L1s, private L2 and, per protection mode, filter caches —
stitched to the shared LLC through the coherence bus and snoop filter.
``process_ids`` assigns an address space per core: one shared process for
multi-threaded workloads (Parsec), distinct processes for multi-programmed
co-run mixes and for cross-core attacker/victim pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.cpu.core import OutOfOrderCore
from repro.cpu.interface import MemorySystem
from repro.memory.page_table import PageTableManager

if TYPE_CHECKING:
    from repro.core.frontend import CoreState
    from repro.sim.hetero import HeterogeneousMemorySystem


def build_memory_system(config: SystemConfig,
                        page_tables: Optional[PageTableManager] = None,
                        stats: Optional[StatGroup] = None,
                        rng: Optional[DeterministicRng] = None
                        ) -> MemorySystem | HeterogeneousMemorySystem:
    """Instantiate the memory system for the configured protection mode(s).

    A configuration whose cores all share one scheme gets the ordinary
    single-scheme system (including when an explicit per-core list is
    provided — identical entries are bit-identical to the homogeneous
    path).  Mixed schemes get the
    :class:`~repro.sim.hetero.HeterogeneousMemorySystem` container: one
    shared fabric, one scheme frontend per protection scheme.
    """
    from repro.schemes import get_scheme
    from repro.sim.hetero import HeterogeneousMemorySystem

    if config.is_scheme_heterogeneous:
        return HeterogeneousMemorySystem(config, page_tables=page_tables,
                                         stats=stats, rng=rng)
    # Uniform machines dispatch on the (single) per-core scheme, so an
    # explicit per-core list can override the machine-level ``mode`` field.
    # The scheme registry (repro.schemes) is the one authoritative
    # name -> memory-system dispatch, shared with the heterogeneous
    # container.
    mode = config.core_config(0).mode if config.cores is not None \
        else config.mode
    return get_scheme(mode).factory(config, page_tables=page_tables,
                                    stats=stats, rng=rng)


@dataclass
class SimulatedSystem:
    """A memory system plus its cores, ready to execute traces."""

    config: SystemConfig
    memory_system: MemorySystem | HeterogeneousMemorySystem
    cores: List[OutOfOrderCore]
    stats: StatGroup
    page_tables: PageTableManager

    def core(self, index: int) -> OutOfOrderCore:
        return self.cores[index]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def hierarchy(self):
        """The shared non-speculative hierarchy (bus, snoop filter, LLC)."""
        return getattr(self.memory_system, "hierarchy", None)

    def core_states(self) -> Iterator[Tuple[int, CoreState]]:
        """``(core_id, state)`` for every core driven by a scheme frontend.

        The tracer and the metrics sampler instrument these.  A core whose
        scheme implements :class:`MemorySystem` directly has no
        :class:`CoreState` and is skipped.
        """
        from repro.core.frontend import SchemeFrontend

        for core in self.cores:
            if isinstance(core.memory, SchemeFrontend):
                yield core.core_id, core.memory.core_state(core.core_id)


def build_system(config: SystemConfig, seed: int = 0,
                 process_ids: Optional[List[int]] = None) -> SimulatedSystem:
    """Build the memory system and one core per hardware context.

    ``process_ids`` assigns a process (address space) to each core; by
    default every core runs process 0, which matches a multi-threaded
    workload sharing one address space (Parsec).
    """
    stats = StatGroup("system")
    rng = DeterministicRng(seed)
    page_tables = PageTableManager(page_size=config.tlb.page_size)
    memory_system = build_memory_system(config, page_tables=page_tables,
                                        stats=stats.child("memory_system"),
                                        rng=rng)
    if process_ids is None:
        process_ids = [0] * config.num_cores
    if len(process_ids) != config.num_cores:
        raise ValueError("need one process id per core")
    # Each core is driven against its scheme frontend (the memory system
    # itself on single-scheme machines), so its hoisted capability probes
    # see the core's own protection scheme.
    cores = [
        OutOfOrderCore(core_id, config, memory_system.frontend(core_id),
                       process_id=process_ids[core_id],
                       stats=stats.child(f"core{core_id}"))
        for core_id in range(config.num_cores)
    ]
    return SimulatedSystem(config=config, memory_system=memory_system,
                           cores=cores, stats=stats, page_tables=page_tables)

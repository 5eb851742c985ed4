"""The heterogeneous (mixed-scheme) memory system.

A machine whose cores run *different* protection schemes — a MuonTrap big
core beside an unprotected LITTLE core, say — still has exactly one
non-speculative fabric: one shared LLC, one coherence bus, one snoop
filter, one main memory.  What differs per core is the speculative
front-end (filter caches, speculative buffers, taint rules).

:class:`HeterogeneousMemorySystem` is therefore a plain container: it
builds the shared :class:`~repro.caches.hierarchy.NonSpeculativeHierarchy`
once and one *scheme frontend* per protection scheme present, each serving
only its cores and all wired to the same hierarchy.  The frontends are the
ordinary single-scheme memory systems built with ``hierarchy=``/
``core_ids=``, so a heterogeneous machine reuses every line of the
single-scheme access paths — there is no separate "hetero" timing model
to drift out of sync.

The container implements no access path of its own.
:func:`~repro.sim.system.build_system` hands each out-of-order core its
own frontend (:meth:`frontend`), so every access, commit and control event
goes straight to that core's scheme, and the core's capability probes
(STT taint delays, InvisiSpec validation) see its own scheme, not a
neighbour's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.caches.hierarchy import NonSpeculativeHierarchy
from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.cpu.interface import MemorySystem
from repro.memory.page_table import PageTableManager
from repro.schemes import get_scheme


class HeterogeneousMemorySystem:
    """Per-core scheme frontends over one shared non-speculative fabric."""

    def __init__(self, config: SystemConfig,
                 page_tables: Optional[PageTableManager] = None,
                 stats: Optional[StatGroup] = None,
                 rng: Optional[DeterministicRng] = None) -> None:
        stats = stats or StatGroup("heterogeneous")
        rng = rng or DeterministicRng(0)
        if page_tables is None:
            page_tables = PageTableManager(page_size=config.tlb.page_size)
        self.hierarchy = NonSpeculativeHierarchy(
            config, stats=stats.child("hierarchy"), rng=rng)
        # One frontend per scheme present, each serving its cores.  Stats
        # nest under the scheme slug so two frontends never share counters:
        # hetero.muontrap.core0.data_filter..., hetero.unprotected.core1...
        by_scheme: Dict[str, List[int]] = {}
        for core_id in range(config.num_cores):
            by_scheme.setdefault(config.core_config(core_id).mode,
                                 []).append(core_id)
        self._frontends: Dict[int, MemorySystem] = {}
        self.scheme_frontends: Dict[str, MemorySystem] = {}
        for scheme, core_ids in by_scheme.items():
            spec = get_scheme(scheme)
            frontend = spec.factory(
                config, page_tables=page_tables,
                stats=stats.child(spec.slug),
                rng=rng, hierarchy=self.hierarchy, core_ids=core_ids)
            self.scheme_frontends[scheme] = frontend
            for core_id in core_ids:
                self._frontends[core_id] = frontend

    def frontend(self, core_id: int) -> MemorySystem:
        """The scheme frontend serving ``core_id``."""
        return self._frontends[core_id]

"""The speculative filter cache (sections 4.1-4.5 of the paper).

A filter cache is a small, 1-cycle, set-associative L0 placed between the
core and the L1.  It is the only structure speculative memory state is
allowed to reach:

* lines are filled directly from the hierarchy without touching the L1/L2
  (non-inclusive, non-exclusive);
* every line carries a *committed* bit (section 4.2): it is set when an
  instruction using the line reaches in-order commit, at which point the
  line is written through to the L1;
* a line is valid exactly while it is in the cache.  The hardware keeps its
  valid bits outside the SRAM so the whole cache can be invalidated in a
  single cycle (section 4.3); the model empties its ways, and a flush
  costs no modelled time;
* lines are tagged with both the virtual and the physical address
  (section 4.4) so the cache is virtually indexed from the CPU side and can
  still be snooped by physical address;
* coherence-wise a resident line is only ever Shared, so it carries no
  state; the ``SE`` pseudo-state flag records that an unprotected system
  would have taken Exclusive, so an asynchronous upgrade can be launched at
  commit (section 4.5);
* each line records the hierarchy level it was filled from, so a commit
  trains the L2 prefetcher only for lines the L2 or memory supplied
  (section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.common.params import FilterCacheConfig
from repro.common.statistics import StatGroup

_last_use = attrgetter("last_use")


@dataclass(slots=True, eq=False)
class FilterLine:
    """One resident filter-cache line; it is valid and Shared by definition.

    Lines compare by identity, so a scan for an empty way (``None in
    ways``) never calls a generated ``__eq__``.
    """

    address: int                    # physical line address
    virtual_tag: int                # virtual line address
    owner_process: Optional[int]
    committed: bool
    se_upgrade_pending: bool
    fill_level: str
    last_use: int
    way: int


class SpeculativeFilterCache:
    """The MuonTrap L0 cache for one core (data or instruction side)."""

    def __init__(self, config: Optional[FilterCacheConfig] = None,
                 stats: Optional[StatGroup] = None,
                 name: str = "filter_cache") -> None:
        self.config = config or FilterCacheConfig()
        self.name = name
        self.line_size = self.config.line_size
        self.num_sets = self.config.num_sets
        self.associativity = min(self.config.associativity,
                                 self.config.num_lines)
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a power of two")
        self._offset_mask = -self.line_size          # == ~(line_size - 1)
        self._line_shift = self.line_size.bit_length() - 1
        # One list of ways per set, None for an empty way.
        self._sets: List[List[Optional[FilterLine]]] = [
            [None] * self.associativity for _ in range(self.num_sets)]
        # Physical-tag index: physical line address -> its resident line.
        # Lines are placed by their *virtual* set index, so a physical snoop
        # cannot recompute the set; the index answers it in O(1).  It holds
        # exactly the resident lines, since at most one resident line holds
        # a given physical address (fills evict aliases first).
        self._physical_index: Dict[int, FilterLine] = {}
        # Virtual-tag index: virtual line address -> its resident line.  A
        # fill re-uses the line already holding its virtual line, so at
        # most one resident line has a given virtual tag and CPU-side
        # lookups need no way scan.
        self._virtual_index: Dict[int, FilterLine] = {}
        stats = stats or StatGroup(name)
        self.stats = stats
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._fills = stats.counter("fills")
        self._evictions = stats.counter("evictions")
        self._uncommitted_evictions = stats.counter(
            "uncommitted_evictions",
            "lines evicted before any using instruction committed")
        self._flushes = stats.counter("flushes")
        self._lines_flushed = stats.counter("lines_flushed")
        self._commits = stats.counter("line_commits")
        self._snoop_invalidations = stats.counter("snoop_invalidations")

    # -- indexing -------------------------------------------------------------
    def line_address(self, address: int) -> int:
        return address & self._offset_mask

    # -- CPU-side lookup (virtually indexed) -------------------------------------
    def lookup(self, virtual_address: int, now: int = 0,
               process_id: Optional[int] = None) -> Optional[FilterLine]:
        """Look the cache up by virtual address from the CPU side.

        Returns the hit line, or None on a miss; either way the lookup
        takes ``config.hit_latency`` cycles.
        """
        line = self._virtual_index.get(virtual_address & self._offset_mask)
        if line is not None and (process_id is None
                                 or line.owner_process is None
                                 or line.owner_process == process_id):
            line.last_use = now
            self._hits.value += 1
            return line
        self._misses.value += 1
        return None

    # -- memory-side lookup (physically indexed) -----------------------------------
    def probe_physical(self, physical_address: int) -> Optional[FilterLine]:
        """Find a resident line by physical address (snoops, aliasing)."""
        return self._physical_index.get(physical_address & self._offset_mask)

    def contains_physical(self, physical_address: int) -> bool:
        return self.probe_physical(physical_address) is not None

    def contains_virtual(self, virtual_address: int,
                         process_id: Optional[int] = None) -> bool:
        line = self._virtual_index.get(virtual_address & self._offset_mask)
        return line is not None and (process_id is None
                                     or line.owner_process is None
                                     or line.owner_process == process_id)

    # -- fills ------------------------------------------------------------------
    def fill(self, virtual_address: int, physical_address: int, now: int, *,
             process_id: Optional[int] = None, committed: bool = False,
             se_upgrade: bool = False,
             fill_level: str = "l2") -> FilterLine:
        """Install a line brought in from the non-speculative hierarchy.

        The line is always installed in the Shared state; ``se_upgrade``
        records the SE pseudo-state.  Physical-address aliasing within the
        process is prevented by evicting any existing line with the same
        physical address first (section 4.4).  The new line takes the first
        empty way, otherwise the least recently used one.
        """
        virtual_line = virtual_address & self._offset_mask
        physical_line = physical_address & self._offset_mask
        alias = self._physical_index.get(physical_line)
        if alias is not None and alias.virtual_tag != virtual_line:
            self._remove(alias)
        # Re-use the line if it is already present (refill after downgrade).
        line = self._virtual_index.get(virtual_line)
        if line is not None:
            line.committed = line.committed or committed
            line.se_upgrade_pending = line.se_upgrade_pending or se_upgrade
            line.last_use = now
            return line
        ways = self._sets[(virtual_address >> self._line_shift)
                          % self.num_sets]
        if None in ways:
            way = ways.index(None)
        else:
            victim = min(ways, key=_last_use)
            way = victim.way
            del self._physical_index[victim.address]
            del self._virtual_index[victim.virtual_tag]
            self._evictions.value += 1
            if not victim.committed:
                self._uncommitted_evictions.value += 1
        line = FilterLine(physical_line, virtual_line, process_id, committed,
                          se_upgrade, fill_level, now, way)
        ways[way] = self._physical_index[physical_line] = \
            self._virtual_index[virtual_line] = line
        self._fills.value += 1
        return line

    def _remove(self, line: FilterLine) -> None:
        """Drop a resident line, leaving its way empty."""
        del self._physical_index[line.address]
        del self._virtual_index[line.virtual_tag]
        self._sets[(line.virtual_tag >> self._line_shift)
                   % self.num_sets][line.way] = None

    # -- commit / invalidation -----------------------------------------------------
    def mark_committed(self, virtual_address: int,
                       now: int = 0) -> Optional[FilterLine]:
        """Set the committed bit on the line holding ``virtual_address``.

        Returns the line so the caller can write it through to the L1 (and
        launch the SE upgrade if pending), or None if the line has already
        been evicted, in which case the caller re-requests it from the
        hierarchy (section 4.2).
        """
        line = self._virtual_index.get(virtual_address & self._offset_mask)
        if line is not None:
            if not line.committed:
                line.committed = True
                self._commits.value += 1
            line.last_use = now
        return line

    def invalidate_physical(self, physical_address: int) -> bool:
        """Invalidate by physical address (coherence broadcast target)."""
        line = self._physical_index.get(physical_address & self._offset_mask)
        if line is None:
            return False
        self._snoop_invalidations.value += 1
        self._remove(line)
        return True

    def flush(self) -> int:
        """Drop every line (section 4.3).

        The hardware clears its valid bits in a single cycle, so a flush
        costs no modelled time.  The write-through-at-commit policy means
        nothing needs writing back: committed data is already in the L1
        and uncommitted data may simply disappear.  Returns the number of
        lines dropped.
        """
        dropped = len(self._physical_index)
        if dropped:
            self._physical_index.clear()
            self._virtual_index.clear()
            self._sets = [[None] * self.associativity
                          for _ in range(self.num_sets)]
        self._flushes.value += 1
        self._lines_flushed.value += dropped
        return dropped

    # -- observability ---------------------------------------------------------
    def attach_tracer(self, tracer, unit: str,
                      core: Optional[int] = None) -> None:
        """Emit trace events for installs/commits/invalidates/flushes.

        Instance-attribute wrappers shadow the class methods, so untraced
        filter caches pay nothing (the zero-cost-when-disabled contract of
        :mod:`repro.telemetry`).  Events carry physical line addresses so
        they correlate with the hierarchy's cache and coherence events.
        """
        emit = tracer.emit
        inner_fill = self.fill
        inner_commit = self.mark_committed
        inner_invalidate = self.invalidate_physical
        inner_flush = self.flush

        def fill(virtual_address, physical_address, now, **kwargs):
            line = inner_fill(virtual_address, physical_address, now,
                              **kwargs)
            emit("filter", "install", cycle=now, core=core,
                 address=line.address, unit=unit, committed=line.committed)
            return line

        def mark_committed(virtual_address, now=0):
            line = inner_commit(virtual_address, now)
            if line is not None:
                emit("filter", "commit", cycle=now, core=core,
                     address=line.address, unit=unit)
            return line

        def invalidate_physical(physical_address):
            present = inner_invalidate(physical_address)
            if present:
                emit("filter", "invalidate", core=core,
                     address=self.line_address(physical_address), unit=unit)
            return present

        def flush():
            dropped = inner_flush()
            emit("filter", "flush", core=core, unit=unit, lines=dropped)
            return dropped

        self.fill = fill
        self.mark_committed = mark_committed
        self.invalidate_physical = invalidate_physical
        self.flush = flush

    # -- introspection -------------------------------------------------------------
    def resident_lines(self) -> List[FilterLine]:
        return [line for ways in self._sets for line in ways
                if line is not None]

    def occupancy(self) -> int:
        return len(self._physical_index)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def flushes(self) -> int:
        return self._flushes.value

    @property
    def uncommitted_evictions(self) -> int:
        return self._uncommitted_evictions.value

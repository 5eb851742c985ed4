"""A set-associative cache with MESI state and MSHRs.

This is the building block for the non-speculative L1 instruction, L1 data
and shared L2 caches.  It deliberately models only metadata (tags, state,
replacement, timing); data values never matter for the side channels the
paper studies, only the presence, state and timing of lines.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.caches.cache_line import CacheLine
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import (ReplacementPolicy,
                                     make_replacement_policy)
from repro.coherence.states import CoherenceState, I, M, S
from repro.common.params import CacheConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup


class SetAssociativeCache:
    """Tag/state array of a single cache level."""

    def __init__(self, config: CacheConfig,
                 stats: Optional[StatGroup] = None,
                 rng: Optional[DeterministicRng] = None) -> None:
        self.config = config
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a power of two")
        # Precomputed address arithmetic for the hot lookup path.
        self._offset_mask = -self.line_size          # == ~(line_size - 1)
        self._line_shift = self.line_size.bit_length() - 1
        rng = rng or DeterministicRng(0)
        self._policy = make_replacement_policy(
            config.replacement, config.associativity, rng)
        # The per-hit/per-fill hook, or None when the policy keeps the
        # base class's empty one (LRU reads ``last_use``, random reads
        # nothing); only tree-PLRU overrides it.
        self._on_access = (
            self._policy.on_access
            if type(self._policy).on_access is not ReplacementPolicy.on_access
            else None)
        # Only resident lines exist: one dict maps each resident line
        # address to its line, and a set's way list (None for an empty way)
        # is built on the set's first fill.
        self._lines: Dict[int, CacheLine] = {}
        self._sets: List[Optional[List[Optional[CacheLine]]]] = \
            [None] * self.num_sets
        self.mshrs = MSHRFile(config.mshrs)
        stats = stats or StatGroup(config.name)
        self.stats = stats
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._evictions = stats.counter("evictions")
        self._writebacks = stats.counter("writebacks")
        self._invalidations = stats.counter("invalidations")
        self._fills = stats.counter("fills")
        self._prefetch_fills = stats.counter("prefetch_fills")

    # -- address helpers ---------------------------------------------------
    def line_address(self, address: int) -> int:
        return address & self._offset_mask

    def set_index_of(self, address: int) -> int:
        return (address >> self._line_shift) % self.num_sets

    # -- lookup / fill / invalidate -----------------------------------------
    def lookup(self, address: int, now: int = 0,
               update_replacement: bool = True) -> Optional[CacheLine]:
        """Return the line holding ``address``, or None on a miss."""
        line = self._lines.get(address & self._offset_mask)
        if line is not None and update_replacement:
            line.last_use = now
            if self._on_access is not None:
                self._on_access((address >> self._line_shift) % self.num_sets,
                                line.way, now)
        return line

    def probe(self, address: int) -> Optional[CacheLine]:
        """Lookup without disturbing replacement state (used by snoops)."""
        return self._lines.get(address & self._offset_mask)

    def record_hit(self) -> None:
        self._hits.value += 1

    def record_miss(self) -> None:
        self._misses.value += 1

    # -- observability -------------------------------------------------------
    def attach_tracer(self, tracer, unit: str,
                      core: Optional[int] = None) -> None:
        """Emit trace events for this cache's hits/misses/fills/evictions.

        The wrappers are *instance* attributes shadowing the class methods,
        so the class — and every untraced instance — keeps executing the
        plain methods with no guard at all (the zero-cost-when-disabled
        contract of :mod:`repro.telemetry`).  Hit/miss events are stamped
        with the tracer's cycle cursor; fills and evictions carry the
        fill's own timestamp.
        """
        emit = tracer.emit
        inner_hit = self.record_hit
        inner_miss = self.record_miss
        inner_fill = self.fill
        inner_invalidate = self.invalidate

        def record_hit() -> None:
            inner_hit()
            emit("cache", "hit", core=core, unit=unit)

        def record_miss() -> None:
            inner_miss()
            emit("cache", "miss", core=core, unit=unit)

        def fill(address, state, now=0, *args, **kwargs):
            line, victim = inner_fill(address, state, now, *args, **kwargs)
            emit("cache", "fill", cycle=now, core=core, address=line.address,
                 unit=unit, state=state.name)
            if victim is not None:
                emit("cache", "evict", cycle=now, core=core,
                     address=victim.address, unit=unit, dirty=victim.dirty)
            return line, victim

        def invalidate(address):
            present = inner_invalidate(address)
            if present:
                emit("cache", "invalidate", core=core,
                     address=self.line_address(address), unit=unit)
            return present

        self.record_hit = record_hit
        self.record_miss = record_miss
        self.fill = fill
        self.invalidate = invalidate

    def fill(self, address: int, state: CoherenceState, now: int = 0,
             dirty: bool = False, prefetched: bool = False,
             ready_at: int = 0,
             writeback_handler: Optional[Callable[[CacheLine], None]] = None
             ) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Install ``address`` in state ``state``; returns (line, victim).

        The victim is the evicted line itself (or None), no longer resident;
        if it was dirty the ``writeback_handler`` is invoked with it so the
        next level can accept the data.  The new line takes the first empty
        way, otherwise the way the replacement policy picks from the full
        set.
        """
        line_addr = address & self._offset_mask
        set_idx = (address >> self._line_shift) % self.num_sets
        line = self._lines.get(line_addr)
        if line is not None:
            line.state = state
            line.dirty = line.dirty or dirty
            line.last_use = now
            if self._on_access is not None:
                self._on_access(set_idx, line.way, now)
            return line, None
        ways = self._sets[set_idx]
        if ways is None:
            ways = self._sets[set_idx] = [None] * self.associativity
        victim: Optional[CacheLine] = None
        if None in ways:
            way = ways.index(None)
        else:
            way = self._policy.victim(set_idx, ways)
            victim = ways[way]
            del self._lines[victim.address]
            self._evictions.value += 1
            if victim.dirty:
                self._writebacks.value += 1
                if writeback_handler is not None:
                    writeback_handler(victim)
        line = CacheLine(line_addr, state, dirty, now, prefetched, ready_at,
                         way)
        ways[way] = self._lines[line_addr] = line
        if self._on_access is not None:
            self._on_access(set_idx, way, now)
        self._fills.value += 1
        if prefetched:
            self._prefetch_fills.value += 1
        return line, victim

    def _remove(self, line: CacheLine) -> None:
        """Drop a resident line, leaving its way empty (an invalidation)."""
        del self._lines[line.address]
        self._sets[(line.address >> self._line_shift)
                   % self.num_sets][line.way] = None
        self._invalidations.value += 1

    def invalidate(self, address: int) -> bool:
        """Invalidate the line holding ``address`` if present."""
        line = self._lines.get(address & self._offset_mask)
        if line is None:
            return False
        self._remove(line)
        return True

    def downgrade(self, address: int,
                  to_state: CoherenceState = S) -> Optional[CoherenceState]:
        """Move the line to ``to_state`` (snoop response); returns old state."""
        line = self._lines.get(address & self._offset_mask)
        if line is None:
            return None
        old_state = line.state
        if to_state is I:
            self._remove(line)
        else:
            line.state = to_state
        return old_state

    def upgrade(self, address: int, to_state: CoherenceState,
                now: int = 0) -> bool:
        """Promote a present line (e.g. S -> M on a committed store)."""
        line = self.lookup(address, now)
        if line is None:
            return False
        line.state = to_state
        if to_state is M:
            line.dirty = True
        return True

    def flush_all(self) -> int:
        """Invalidate every line; returns the number of lines dropped."""
        dropped = len(self._lines)
        self._lines.clear()
        self._sets = [None] * self.num_sets
        return dropped

    # -- introspection helpers (used heavily by tests and attacks) ----------
    def contains(self, address: int) -> bool:
        return self.probe(address) is not None

    def state_of(self, address: int) -> CoherenceState:
        line = self.probe(address)
        return line.state if line is not None else I

    def resident_lines(self) -> List[CacheLine]:
        """Every resident line, in set order and way order within a set."""
        return [line for ways in self._sets if ways is not None
                for line in ways if line is not None]

    def occupancy(self) -> int:
        return len(self._lines)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

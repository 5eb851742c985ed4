"""The MESI coherence controller for the non-speculative hierarchy.

This module decides, for every load, store, instruction fetch and prefetch,
what the rest of the hierarchy has to do: which caches are snooped, which
lines are downgraded or invalidated, where the data comes from, what
coherence state the requester receives, and how long the whole transaction
takes.  The MuonTrap-specific behaviour (NACKing speculative requests that
would disturb another core's private M/E copy, and granting only Shared to
filter caches with an ``SE`` hint) is driven by flags on the request so the
same controller serves every protection mode.

Both request paths return a plain tuple, so a request builds no result
object:

* :meth:`CoherenceController.read` returns ``(latency, hit_level,
  exclusive_available)``.  ``hit_level`` is ``"l2"``, ``"memory"``,
  ``"peer"`` or ``"nack"``; a NACKed read is one whose level is
  ``"nack"``.  The requester is granted Exclusive exactly when
  ``exclusive_available`` is set, and Shared otherwise.
* :meth:`CoherenceController.write` returns ``(latency, hit_level,
  triggered_filter_broadcast)``.  ``hit_level`` is ``"l2"`` or
  ``"memory"``, and a write is always granted Modified.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.coherence.bus import CoherenceBus
from repro.coherence.states import CoherenceState, E, I, M, S
from repro.common.statistics import StatGroup
from repro.memory.main_memory import MainMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, typing only
    from repro.caches.base_cache import SetAssociativeCache


class MesiEvent(enum.Enum):
    """The events that drive one cache's MESI state machine."""

    LOCAL_READ = "local-read"     # this cache's core reads the line
    LOCAL_WRITE = "local-write"   # this cache's core writes the line
    REMOTE_READ = "remote-read"   # another core's read snoops this cache
    REMOTE_WRITE = "remote-write"  # another core's write/upgrade snoops it
    EVICT = "evict"               # the line is evicted or invalidated


#: The complete per-cache MESI transition table.  Every (state, event) pair
#: is present; the controller below realises these transitions across the
#: private caches, the shared LLC and memory, and the exhaustive test in
#: ``tests/coherence/test_protocol.py`` enumerates the table against the
#: invariants the protocol must keep (single writer, no stale readers).
#:
#: ``LOCAL_READ``/``LOCAL_WRITE`` from Invalid describe the state the
#: requester is *granted*; a read miss is granted Exclusive only when the
#: snoop (or snoop filter) proves no other copy exists, which the table
#: cannot see, so Invalid + LOCAL_READ conservatively maps to Shared and
#: the controller upgrades the grant to Exclusive when it may.
MESI_TRANSITIONS: Dict[Tuple[CoherenceState, MesiEvent],
                       CoherenceState] = {
    (M, MesiEvent.LOCAL_READ): M,
    (M, MesiEvent.LOCAL_WRITE): M,
    (M, MesiEvent.REMOTE_READ): S,    # writeback, then share
    (M, MesiEvent.REMOTE_WRITE): I,
    (M, MesiEvent.EVICT): I,
    (E, MesiEvent.LOCAL_READ): E,
    (E, MesiEvent.LOCAL_WRITE): M,    # silent upgrade
    (E, MesiEvent.REMOTE_READ): S,
    (E, MesiEvent.REMOTE_WRITE): I,
    (E, MesiEvent.EVICT): I,
    (S, MesiEvent.LOCAL_READ): S,
    (S, MesiEvent.LOCAL_WRITE): M,    # needs an invalidating upgrade
    (S, MesiEvent.REMOTE_READ): S,
    (S, MesiEvent.REMOTE_WRITE): I,
    (S, MesiEvent.EVICT): I,
    (I, MesiEvent.LOCAL_READ): S,     # controller may grant E instead
    (I, MesiEvent.LOCAL_WRITE): M,
    (I, MesiEvent.REMOTE_READ): I,
    (I, MesiEvent.REMOTE_WRITE): I,
    (I, MesiEvent.EVICT): I,
}


def next_state(state: CoherenceState, event: MesiEvent) -> CoherenceState:
    """The table lookup used by the controller for snoop-driven downgrades."""
    return MESI_TRANSITIONS[(state, event)]


class CoherenceController:
    """Implements MESI over the private L1s, the shared L2 and memory."""

    def __init__(self, bus: CoherenceBus, l2: "SetAssociativeCache",
                 memory: MainMemory,
                 stats: Optional[StatGroup] = None) -> None:
        self.bus = bus
        self.l2 = l2
        self.memory = memory
        stats = stats or StatGroup("coherence")
        self.stats = stats
        self._reads = stats.counter("read_requests")
        self._writes = stats.counter("write_requests")
        self._upgrades = stats.counter("exclusive_upgrades")
        self._nacked_reads = stats.counter("nacked_speculative_reads")
        self._dirty_transfers = stats.counter("dirty_transfers")

    # -- internals -----------------------------------------------------------
    def _fill_l2(self, line_address: int, state: CoherenceState, now: int,
                 dirty: bool = False) -> None:
        """Fill the L2; a dirty victim is written back to memory at ``now``.

        The write-back closure is built here, so the request paths carry no
        closure cells of their own.
        """
        self.l2.fill(line_address, state, now, dirty,
                     writeback_handler=lambda victim: self.memory.write(
                         victim.address, now))

    def _fetch_into_l2(self, line_address: int, now: int) -> int:
        """Bring a line into the L2 from memory; returns added latency."""
        latency = self.memory.read(line_address, now)
        self._fill_l2(line_address, E, now + latency)
        return latency

    def _l2_lookup_latency(self, line_address: int, now: int) -> Optional[int]:
        """L2 access latency if the line is resident (None on L2 miss)."""
        line = self.l2.lookup(line_address, now)
        if line is None:
            self.l2.record_miss()
            return None
        self.l2.record_hit()
        latency = self.l2.config.hit_latency
        if line.prefetched and line.ready_at > now:
            # The prefetch that installed this line has not completed yet:
            # the demand access pays the remaining fill time.
            latency += line.ready_at - now
            line.prefetched = False
        return latency

    # -- read path -----------------------------------------------------------
    def read(self, requester: int, line_address: int, now: int,
             speculative: bool = False,
             protect_coherence: bool = False,
             fill_l2: bool = True) -> Tuple[int, str, bool]:
        """Serve a read miss from the requester's private L1 (or filter cache).

        Returns ``(latency, hit_level, exclusive_available)`` (see the
        module docstring).

        ``protect_coherence`` enables MuonTrap's reduced coherency
        speculation: a speculative read that would force another core's
        private M/E line to S is NACKed instead of serviced.

        ``fill_l2=False`` serves the request without installing the line in
        the shared L2 on an L2 miss.  This is the filter-cache fill path
        (section 4.1): data fetched on behalf of a speculative access must
        go directly into the filter cache and leave no trace in any
        non-speculative cache.
        """
        self._reads.value += 1
        snoop = self.bus.snoop(requester, line_address)
        latency = self.bus.snoop_latency

        if snoop.dirty_owner is not None or snoop.exclusive_owner is not None:
            if protect_coherence and speculative:
                # MuonTrap: do not disturb another core's private copy on
                # behalf of a speculative instruction.  The requester retries
                # once the access is non-speculative.
                self.bus.record_nack()
                self._nacked_reads.value += 1
                return latency, "nack", False
            owner = (snoop.dirty_owner if snoop.dirty_owner is not None
                     else snoop.exclusive_owner)
            was_dirty = snoop.dirty_owner is not None
            self.bus.downgrade_core(
                owner, line_address,
                next_state(M if was_dirty else E, MesiEvent.REMOTE_READ))
            if was_dirty:
                # Writeback to the shared L2 so the requester reads clean data.
                self._fill_l2(line_address, S, now + latency, dirty=True)
                self._dirty_transfers.value += 1
                latency += self.bus.dirty_transfer_latency
            else:
                latency += self.l2.config.hit_latency
                if self.l2.probe(line_address) is None:
                    self.l2.fill(line_address, S, now + latency)
            return latency, "peer", False

        # No private owner elsewhere: the L2 (or memory) supplies the line.
        l2_latency = self._l2_lookup_latency(line_address, now + latency)
        if l2_latency is None:
            if fill_l2:
                latency += self._fetch_into_l2(line_address, now + latency)
            else:
                latency += self.memory.read(line_address, now + latency)
            hit_level = "memory"
        else:
            latency += l2_latency
            hit_level = "l2"
        return latency, hit_level, not snoop.sharers

    # -- write path ------------------------------------------------------------
    def write(self, requester: int, line_address: int, now: int,
              broadcast_to_filters: bool = False) -> Tuple[int, str, bool]:
        """Obtain Modified ownership for a store whose line is not private.

        Returns ``(latency, hit_level, triggered_filter_broadcast)`` (see
        the module docstring).

        A requester whose own private cache holds the line in M or E
        upgrades it silently and never calls this (see
        :meth:`~repro.caches.hierarchy.NonSpeculativeHierarchy.commit_store`).
        ``broadcast_to_filters`` additionally invalidates every other filter
        cache (the MuonTrap invalidation broadcast of section 4.5).
        """
        self._writes.value += 1
        snoop = self.bus.snoop(requester, line_address)
        # The scoped-invalidate ablation's directory verdict must be read
        # before invalidate_others retires the peers' entries below.
        scope_skip = (self.bus.filter_invalidate_scope_skips(
            requester, line_address) if broadcast_to_filters else False)
        latency = self.bus.snoop_latency
        if snoop.dirty_owner is not None:
            self.l2.fill(line_address, S, now + latency, dirty=True)
            latency += self.bus.dirty_transfer_latency
            self._dirty_transfers.value += 1
        self.bus.invalidate_others(requester, line_address)

        l2_latency = self._l2_lookup_latency(line_address, now + latency)
        if l2_latency is None:
            latency += self._fetch_into_l2(line_address, now + latency)
            hit_level = "memory"
        else:
            latency += l2_latency
            hit_level = "l2"

        triggered = False
        if broadcast_to_filters:
            # False only when the scoped-invalidate ablation skipped the
            # multicast; Figure 7 counts performed broadcasts.
            triggered = self.bus.broadcast_filter_invalidate(
                requester, line_address, scope_skip=scope_skip)
        self._upgrades.value += 1
        return latency, hit_level, triggered

    # -- asynchronous exclusive upgrade (the SE pseudo-state, section 4.5) -----
    def asynchronous_exclusive_upgrade(self, requester: int,
                                       line_address: int, now: int) -> None:
        """Upgrade a committed load's line to Exclusive off the critical path.

        Launched from the L1 when a line that was filled in the ``SE``
        pseudo-state commits.  Invalidates stale copies elsewhere (including
        other filter caches) but adds no latency to the committing core.
        """
        self._upgrades.value += 1
        scope_skip = self.bus.filter_invalidate_scope_skips(requester,
                                                            line_address)
        self.bus.invalidate_others(requester, line_address)
        self.bus.broadcast_filter_invalidate(requester, line_address,
                                             scope_skip=scope_skip)

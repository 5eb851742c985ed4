"""The non-speculative cache hierarchy shared by every protection mode.

This wires together the per-core private L1 instruction and data caches, the
shared L2 with its stream prefetcher, main memory, and the MESI coherence
controller.  Protection-specific memory systems (the MuonTrap filter caches,
InvisiSpec's speculative buffers, STT's delays, or the plain unprotected
system) are thin layers on top of the two entry points provided here:

* :meth:`access` — the conventional path: look up the requester's private L1
  and, on a miss, obtain the line through the coherence controller and fill
  the L1.  Used by the unprotected baseline, the insecure-L0 ablation, and
  by InvisiSpec's validation/exposure accesses.
* :meth:`read_for_filter` — the MuonTrap path: supply a line to a filter
  cache *without* filling any non-speculative cache, honouring the reduced
  coherency speculation rules.

Commit-side helpers (:meth:`commit_fill_l1`, :meth:`commit_store`,
:meth:`notify_commit_prefetch`) implement write-through-at-commit, exclusive
upgrades with filter-cache broadcasts, and commit-time prefetcher training,
which calls the L2 prefetcher directly (no queue sits between commit and
the prefetcher).

The request paths return plain tuples, so an access builds no result
object:

* :meth:`~NonSpeculativeHierarchy.access` returns ``(latency,
  hit_level)``;
* :meth:`~NonSpeculativeHierarchy.read_for_filter` returns ``(latency,
  hit_level, exclusive_available)``;
* :meth:`~NonSpeculativeHierarchy.commit_store` returns ``(latency,
  hit_level, triggered_filter_broadcast)``.

``hit_level`` names the level that served the request: ``"l1"``,
``"mshr"`` (merged with an in-flight miss), ``"l2p"`` (the core's private
L2), ``"peer"``, ``"l2"``, ``"memory"``, or ``"nack"`` for a speculative
read that MuonTrap's reduced coherency speculation refused.  A NACKed
request's latency is the snoop's alone.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.caches.base_cache import SetAssociativeCache
from repro.coherence.bus import CoherenceBus
from repro.coherence.protocol import CoherenceController
from repro.coherence.snoop_filter import SnoopFilter
from repro.coherence.states import CoherenceState, E, I, M, S
from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.memory.main_memory import MainMemory
from repro.prefetch.base import NullPrefetcher, Prefetcher, TrainingEvent
from repro.prefetch.stream import StreamPrefetcher

#: Where the access-time training reorder window delivers from: mostly the
#: oldest buffered event, sometimes the second or third.
_REORDER_DRAW = (0, 0, 0, 1, 1, 2)
#: ``choice(_REORDER_DRAW)`` draws ``getrandbits(_DRAW_BITS)`` until the
#: draw is below ``_DRAW_N``; the window repeats that draw inline.
_DRAW_N = len(_REORDER_DRAW)
_DRAW_BITS = _DRAW_N.bit_length()

#: ``_new_event(TrainingEvent, fields)`` builds a training event in C,
#: without the Python-level ``__new__`` a named tuple's constructor runs.
_new_event = tuple.__new__


class NonSpeculativeHierarchy:
    """Private L1s (+ optional private L2s) + shared LLC + memory + MESI.

    With ``config.private_l2`` unset this is the historical topology: the
    per-core L1s sit directly on the shared L2.  A co-run configuration
    gives every core a private unified L2 between its L1s and the shared
    cache, all stitched together by the same coherence bus — whose snoops
    are scoped by a conservative :class:`SnoopFilter` directory.  Private
    geometry is resolved per core through
    :meth:`~repro.common.params.SystemConfig.core_config`, so a
    heterogeneous machine can put a big core's 64 KiB L1d beside a LITTLE
    core's 32 KiB one on the same fabric.
    """

    def __init__(self, config: SystemConfig,
                 stats: Optional[StatGroup] = None,
                 rng: Optional[DeterministicRng] = None) -> None:
        self.config = config
        # Every cache of the hierarchy shares the shared L2's line size
        # (SystemConfig and CoreConfig check it).
        self._line_mask = -config.l2.line_size
        stats = stats or StatGroup("hierarchy")
        self.stats = stats
        rng = rng or DeterministicRng(0)
        self.memory = MainMemory(config.memory, stats=stats.child("memory"))
        self.l2 = SetAssociativeCache(config.l2, stats=stats.child("l2"),
                                      rng=rng.fork(1))
        self.snoop_filter = SnoopFilter(stats=stats.child("snoop_filter"))
        # The filter-invalidate multicast is scoped by the directory only
        # under the explicit (insecure) ablation flag; see ProtectionConfig.
        scoped_invalidate = any(
            config.core_config(core_id).protection.insecure_scoped_invalidate
            for core_id in range(config.num_cores))
        self.bus = CoherenceBus(stats=stats.child("bus"),
                                snoop_filter=self.snoop_filter,
                                scoped_filter_invalidate=scoped_invalidate)
        self.controller = CoherenceController(self.bus, self.l2, self.memory,
                                              stats=stats.child("coherence"))
        self._l1d: Dict[int, SetAssociativeCache] = {}
        self._l1i: Dict[int, SetAssociativeCache] = {}
        self._l2p: Dict[int, SetAssociativeCache] = {}
        for core_id in range(config.num_cores):
            per_core = config.core_config(core_id)
            l1d_stats = stats.child(f"core{core_id}").child("l1d")
            l1i_stats = stats.child(f"core{core_id}").child("l1i")
            self._l1d[core_id] = SetAssociativeCache(
                per_core.l1d, stats=l1d_stats, rng=rng.fork(10 + core_id))
            self._l1i[core_id] = SetAssociativeCache(
                per_core.l1i, stats=l1i_stats, rng=rng.fork(100 + core_id))
            self.bus.register_private_cache(core_id, self._l1d[core_id])
            if per_core.private_l2 is not None:
                l2p_stats = stats.child(f"core{core_id}").child("l2p")
                self._l2p[core_id] = SetAssociativeCache(
                    per_core.private_l2, stats=l2p_stats,
                    rng=rng.fork(1000 + core_id))
                self.bus.register_private_cache(core_id, self._l2p[core_id])
        self.l2_prefetcher: Prefetcher = (
            StreamPrefetcher(line_size=config.l2.line_size,
                             degree=config.l2.prefetch_degree + 1,
                             stats=stats.child("l2_prefetcher"))
            if config.l2.prefetcher == "stride" else NullPrefetcher())
        # Commit-time training (section 4.6) goes straight to the L2
        # prefetcher.  ``dropped_notifications`` stays 0: nothing queues
        # between commit and the prefetcher, so nothing can overflow.
        commit_stats = stats.child("commit_prefetch")
        self._commit_notifications = commit_stats.counter("notifications")
        commit_stats.counter("dropped_notifications")
        self._commit_prefetches = commit_stats.counter("prefetches_generated")
        self._store_commits = stats.counter("store_commits")
        self._store_filter_broadcasts = stats.counter(
            "store_filter_broadcasts",
            "committed stores requiring a filter-cache invalidate broadcast")
        # Access-time (speculative) prefetcher training sees the miss stream
        # in the order an out-of-order core issues it, not program order.
        # The small reorder buffer below emulates that jumbling; commit-time
        # training bypasses it and trains strictly in order, which is the
        # effect behind the paper's lbm result (section 6.1).
        # The window's slot is drawn as ``choice(_REORDER_DRAW)`` would
        # draw it (see ``_DRAW_BITS``).
        self._speculative_train_bits = rng.fork(999).getrandbits
        self._speculative_train_buffer: list = []

    # -- accessors ----------------------------------------------------------
    def l1d(self, core_id: int) -> SetAssociativeCache:
        return self._l1d[core_id]

    def l1i(self, core_id: int) -> SetAssociativeCache:
        return self._l1i[core_id]

    def private_l2(self, core_id: int) -> Optional[SetAssociativeCache]:
        """The core's private L2, or None in the shared-L2 topology."""
        return self._l2p.get(core_id)

    def line_address(self, address: int) -> int:
        return address & self._line_mask

    # -- fills that move a dirty victim one level down ------------------------
    # Each fill runs its victim's write-back inside ``fill``, before the new
    # line is installed (so a traced run records the write-back first).  The
    # write-back closures are built here, so the access paths below carry
    # no closure cells of their own.
    def _fill_l1(self, core_id: int, l1: SetAssociativeCache,
                 line_address: int, state: CoherenceState, now: int,
                 dirty: bool = False, prefetched: bool = False,
                 ready_at: int = 0) -> None:
        """Fill a private L1; a dirty victim lands below it at ``now``."""
        l1.fill(line_address, state, now, dirty, prefetched, ready_at,
                lambda victim: self._writeback_from_l1(
                    core_id, victim.address, now))

    def _fill_l2p(self, l2p: SetAssociativeCache, line_address: int,
                  state: CoherenceState, now: int,
                  dirty: bool = False) -> None:
        """Fill a private L2; a dirty victim lands in the shared L2."""
        l2p.fill(line_address, state, now, dirty,
                 writeback_handler=lambda victim: self._fill_l2(
                     victim.address, M, now, dirty=True))

    def _fill_l2(self, line_address: int, state: CoherenceState, now: int,
                 dirty: bool = False, prefetched: bool = False,
                 ready_at: int = 0) -> None:
        """Fill the shared L2; a dirty victim is written back to memory."""
        self.l2.fill(line_address, state, now, dirty, prefetched, ready_at,
                     lambda victim: self.memory.write(victim.address, now))

    def _writeback_from_l1(self, core_id: int, line_address: int,
                           now: int) -> None:
        """A dirty L1 victim lands in the private L2 (or the shared LLC)."""
        l2p = self._l2p.get(core_id)
        if l2p is None:
            self._fill_l2(line_address, M, now, dirty=True)
            return
        self._fill_l2p(l2p, line_address, M, now, dirty=True)
        self.bus.note_fill(core_id, line_address)

    # -- prefetch machinery ---------------------------------------------------
    def _install_prefetch(self, line_address: int, now: int) -> None:
        """Install a prefetched line into the shared L2 (non-speculative).

        Prefetches compete with demand misses for the L2's MSHRs: when the
        file is full the prefetch is dropped rather than queued, which is
        how hardware prefetchers typically behave under load.
        """
        l2 = self.l2
        if l2.probe(line_address) is not None:
            return
        if l2.mshrs.occupancy(now) >= l2.mshrs.num_entries:
            return
        fill_latency = self.config.memory.access_latency
        l2.mshrs.allocate(line_address, now, fill_latency)
        self._fill_l2(line_address, E, now, prefetched=True,
                      ready_at=now + fill_latency)

    def train_l2_prefetcher(self, address: int, now: int) -> None:
        """Train the L2 prefetcher from the (out-of-order) access stream.

        This is the unprotected behaviour: training events are produced by
        speculative, possibly wrong-path accesses and reach the prefetcher
        roughly in issue order.  A small reorder window models that the
        issue order of an 8-wide out-of-order core is not program order.
        """
        buffer = self._speculative_train_buffer
        buffer.append(_new_event(TrainingEvent, (address, now)))
        if len(buffer) <= 3:
            return
        # Mild reordering: most events arrive in order, but nearby accesses
        # (different loop iterations in flight together) occasionally swap.
        # The buffer holds at least four events, so every draw is in range.
        getrandbits = self._speculative_train_bits
        slot = getrandbits(_DRAW_BITS)
        while slot >= _DRAW_N:
            slot = getrandbits(_DRAW_BITS)
        delivered = buffer.pop(_REORDER_DRAW[slot])
        for line in self.l2_prefetcher.train(delivered):
            self._install_prefetch(line, delivered.cycle)

    def flush_speculative_training(self, now: int) -> int:
        """Deliver every still-buffered training event (end of run).

        The reorder window above holds back the last few events; without an
        explicit flush they would silently never reach the prefetcher,
        leaving training behaviour dependent on where the run happens to
        stop.  The simulator drains this via
        :meth:`repro.cpu.interface.MemorySystem.drain`; remaining events are
        delivered in order, stamped with their original cycles.  Returns the
        number of events delivered.
        """
        delivered = 0
        buffer = self._speculative_train_buffer
        while buffer:
            event = buffer.pop(0)
            for line in self.l2_prefetcher.train(event):
                self._install_prefetch(line, event.cycle)
            delivered += 1
        return delivered

    def notify_commit_prefetch(self, line_address: int, now: int) -> None:
        """Train the L2 prefetcher on a committed access (section 4.6).

        Commit order is program order, so the prefetcher sees no wrong-path
        access and no issue-order jumbling; what it proposes is installed
        in the L2 at once.
        """
        self._commit_notifications.value += 1
        for line in self.l2_prefetcher.train(
                _new_event(TrainingEvent, (line_address, now))):
            self._install_prefetch(line, now)
            self._commit_prefetches.value += 1

    # -- conventional access path ----------------------------------------------
    def access(self, core_id: int, address: int, now: int, *,
               is_store: bool = False, speculative: bool = False,
               protect_coherence: bool = False,
               instruction: bool = False, fill_l1: bool = True,
               train_prefetcher: bool = True) -> Tuple[int, str]:
        """Access through the private L1 (instruction or data) and below.

        This is the behaviour of an unprotected system: (wrong-path)
        speculative accesses fill the L1 and train the prefetcher like any
        other access.  Stores request ownership (Modified); loads accept
        Shared or Exclusive.  Returns ``(latency, hit_level)``.
        """
        l1 = self._l1i[core_id] if instruction else self._l1d[core_id]
        line_address = address & self._line_mask
        line = l1.lookup(line_address, now)
        if line is not None and (not is_store or line.state is M
                                 or line.state is E):
            l1.record_hit()
            latency = l1.config.hit_latency
            if line.prefetched and line.ready_at > now:
                latency += line.ready_at - now
                line.prefetched = False
            if is_store:
                line.state = M
                line.dirty = True
            return latency, "l1"
        l1.record_miss()
        ready_time = l1.mshrs.lookup(line_address, now)
        if ready_time is not None and not is_store:
            # Merge with an in-flight miss to the same line.
            return l1.config.hit_latency + max(1, ready_time - now), "mshr"
        l2p = self._l2p.get(core_id)
        if l2p is not None:
            pline = l2p.lookup(line_address, now)
            if pline is not None and (not is_store or pline.state is M
                                      or pline.state is E):
                # Served entirely within the core's private hierarchy: no
                # bus transaction, the L1 refills from the private L2.
                l2p.record_hit()
                latency = l1.config.hit_latency + l2p.config.hit_latency
                if is_store:
                    pline.state = M
                    pline.dirty = True
                if fill_l1:
                    self._fill_l1(core_id, l1, line_address, pline.state,
                                  now + latency, dirty=is_store)
                return latency, "l2p"
            l2p.record_miss()
        if is_store:
            # A store that found its line privately held returned above.
            latency, hit_level, _ = self.controller.write(
                core_id, line_address, now,
                # The upgrade transaction is snooped by every protected
                # filter cache on the fabric, whatever the writer's own
                # scheme (no-op unless a mixed machine registered peers).
                broadcast_to_filters=self.bus.has_peer_filter_listeners(
                    core_id))
            state = M
        else:
            latency, hit_level, exclusive = self.controller.read(
                core_id, line_address, now, speculative=speculative,
                protect_coherence=protect_coherence)
            if hit_level == "nack":
                return latency, "nack"
            state = E if exclusive else S
            # Loads allocate an MSHR so occupancy statistics and merge
            # behaviour are tracked; stores allocate none.  The latency
            # charged is the downstream latency itself: the out-of-order
            # core model accounts for overlap, so an additional structural
            # stall here would double-count contention.
            l1.mshrs.allocate(line_address, now, latency)
        total_latency = l1.config.hit_latency + latency
        if fill_l1:
            filled_at = now + total_latency
            self._fill_l1(core_id, l1, line_address, state, filled_at,
                          dirty=is_store)
            if l2p is not None:
                self._fill_l2p(l2p, line_address, state, filled_at,
                               dirty=is_store)
            if l2p is not None or not instruction:
                self.bus.note_fill(core_id, line_address)
        if train_prefetcher and not instruction and hit_level in (
                "l2", "memory"):
            self.train_l2_prefetcher(line_address, now)
        return total_latency, hit_level

    # -- MuonTrap filter-cache path ---------------------------------------------
    def read_for_filter(self, core_id: int, address: int, now: int, *,
                        speculative: bool = True,
                        protect_coherence: bool = True,
                        instruction: bool = False,
                        train_prefetcher_speculatively: bool = False
                        ) -> Tuple[int, str, bool]:
        """Supply a line to a filter cache without filling the L1 or L2.

        The filter cache may read data from any cache on its linear path to
        memory (its own L1, the shared L2, memory) and from peers only when
        no private non-speculative cache holds the line exclusively
        (section 4.5).  Returns ``(latency, hit_level,
        exclusive_available)``; ``exclusive_available`` signals that an
        unprotected system would have installed the line in E, i.e. the
        filter line should be marked ``SE``.
        """
        l1 = self._l1i[core_id] if instruction else self._l1d[core_id]
        line_address = address & self._line_mask
        line = l1.lookup(line_address, now)
        if line is not None:
            l1.record_hit()
            latency = l1.config.hit_latency
            if line.prefetched and line.ready_at > now:
                latency += line.ready_at - now
                line.prefetched = False
            return latency, "l1", line.state is M or line.state is E
        l1.record_miss()
        ready_time = l1.mshrs.lookup(line_address, now)
        if ready_time is not None:
            return (l1.config.hit_latency + max(1, ready_time - now), "mshr",
                    False)
        l2p = self._l2p.get(core_id)
        if l2p is not None:
            pline = l2p.lookup(line_address, now)
            if pline is not None:
                # The private L2 is on the filter cache's linear path to
                # memory, so it may supply the line (section 4.5).
                l2p.record_hit()
                return (l1.config.hit_latency + l2p.config.hit_latency,
                        "l2p", pline.state is M or pline.state is E)
            l2p.record_miss()
        latency, hit_level, exclusive = self.controller.read(
            core_id, line_address, now, speculative=speculative,
            protect_coherence=protect_coherence, fill_l2=False)
        if hit_level == "nack":
            return latency, "nack", False
        l1.mshrs.allocate(line_address, now, latency)
        if (train_prefetcher_speculatively and not instruction
                and hit_level in ("l2", "memory")):
            # Only used when the commit-time prefetch protection is disabled
            # (the "fcache only" ablation points of Figures 8 and 9).
            self.train_l2_prefetcher(line_address, now)
        return l1.config.hit_latency + latency, hit_level, exclusive

    # -- commit-side operations ---------------------------------------------------
    def commit_fill_l1(self, core_id: int, address: int, now: int, *,
                       exclusive: bool = False, instruction: bool = False,
                       asynchronous_reload: bool = False) -> None:
        """Write a committed filter-cache line through into the L1.

        ``exclusive`` installs the line in E and launches the asynchronous
        upgrade of section 4.5 (invalidating stale copies elsewhere,
        including other filter caches) off the critical path.
        ``asynchronous_reload`` marks fills for lines that had already been
        evicted from the filter cache: the line arrives after an L2/memory
        round trip rather than immediately.
        """
        l1 = self._l1i[core_id] if instruction else self._l1d[core_id]
        line_address = address & self._line_mask
        if l1.probe(line_address) is None:
            if self.config.num_cores > 1:
                # A peer may have acquired the line privately since the
                # filter cache read it (e.g. a committed store invalidated
                # the filter copy before this commit).  Installing a Shared
                # copy next to an M/E owner would break the single-writer
                # invariant, so downgrade the owner first — asynchronously,
                # like the fill itself, so commit latency is unaffected.
                snoop = self.bus.snoop(core_id, line_address)
                if snoop.dirty_owner is not None:
                    self.bus.downgrade_core(snoop.dirty_owner, line_address,
                                            S)
                    self._fill_l2(line_address, S, now, dirty=True)
                elif snoop.exclusive_owner is not None:
                    self.bus.downgrade_core(snoop.exclusive_owner,
                                            line_address, S)
            ready_at = now
            prefetched = False
            if asynchronous_reload:
                reload_latency = (self.config.l2.hit_latency
                                  if self.l2.probe(line_address) is not None
                                  else self.config.memory.access_latency)
                ready_at = now + reload_latency
                prefetched = True
            state = E if exclusive else S
            self._fill_l1(core_id, l1, line_address, state, now,
                          prefetched=prefetched, ready_at=ready_at)
            l2p = self._l2p.get(core_id)
            if l2p is not None and l2p.probe(line_address) is None:
                self._fill_l2p(l2p, line_address, state, now)
            if l2p is not None or not instruction:
                self.bus.note_fill(core_id, line_address)
            if self.l2.probe(line_address) is None:
                # Keep the (mostly-inclusive) shared L2 aware of the line so
                # later evictions and snoops behave sensibly.
                self.l2.fill(line_address, S, now)
        if exclusive and not instruction:
            self.controller.asynchronous_exclusive_upgrade(core_id,
                                                           line_address, now)

    def commit_store(self, core_id: int, address: int, now: int, *,
                     broadcast_to_filters: bool = False
                     ) -> Tuple[int, str, bool]:
        """Perform a committed store's write into the L1 (write-allocate).

        Returns ``(latency, hit_level, triggered_filter_broadcast)``, where
        ``latency`` is that of obtaining ownership.  When
        ``broadcast_to_filters`` is set and the line was not already held
        privately, the exclusive upgrade additionally invalidates every other
        filter cache; the caller can read ``triggered_filter_broadcast`` to
        build Figure 7.  The multicast is also forced whenever another
        core's protected filter cache listens on the bus: it is a fabric
        property, so an unprotected writer's committed store still
        invalidates a MuonTrap peer's speculative copy on a mixed machine.
        """
        self._store_commits.value += 1
        broadcast_to_filters = (broadcast_to_filters
                                or self.bus.has_peer_filter_listeners(
                                    core_id))
        l1 = self._l1d[core_id]
        line_address = address & self._line_mask
        line = l1.lookup(line_address, now)
        if line is not None and (line.state is M or line.state is E):
            line.state = M
            line.dirty = True
            return l1.config.hit_latency, "l1", False
        l2p = self._l2p.get(core_id)
        if l2p is not None:
            pline = l2p.lookup(line_address, now)
            if pline is not None and (pline.state is M or pline.state is E):
                # Ownership already held within the private hierarchy.
                pline.state = M
                pline.dirty = True
                self._fill_l1(core_id, l1, line_address, M, now, dirty=True)
                return (l1.config.hit_latency + l2p.config.hit_latency,
                        "l2p", False)
        latency, hit_level, triggered = self.controller.write(
            core_id, line_address, now,
            broadcast_to_filters=broadcast_to_filters)
        if triggered:
            self._store_filter_broadcasts.value += 1
        filled_at = now + latency
        self._fill_l1(core_id, l1, line_address, M, filled_at, dirty=True)
        if l2p is not None:
            self._fill_l2p(l2p, line_address, M, filled_at, dirty=True)
        self.bus.note_fill(core_id, line_address)
        return l1.config.hit_latency + latency, hit_level, triggered

    # -- statistics convenience -----------------------------------------------
    @property
    def store_commits(self) -> int:
        return self._store_commits.value

    @property
    def store_filter_broadcasts(self) -> int:
        return self._store_filter_broadcasts.value

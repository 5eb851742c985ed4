"""The snooping interconnect between private caches and the shared LLC.

The bus tracks which private (per-core) caches are registered — each core
contributes its L1 data cache and, in co-run topologies, its private unified
L2 — lets the coherence controller probe and downgrade them, and carries the
two kinds of broadcast MuonTrap adds: negative acknowledgements (NACKs) of
speculative requests that would disturb another core's private M/E line
(section 4.5, "reduced coherency speculation"), and filter-cache
invalidation broadcasts on exclusive upgrades (the cost measured in
Figure 7).

When a :class:`~repro.coherence.snoop_filter.SnoopFilter` is attached, the
bus consults it before probing: the directory is a conservative superset of
the true holders (see its module docstring), so an empty lookup proves the
other caches hold nothing and the probe — whose outcome would be empty — is
skipped.  The snoop *latency* is charged either way, so attaching the
filter never changes timing, only the amount of probing work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.coherence.snoop_filter import SnoopFilter
from repro.coherence.states import CoherenceState, E, I, M, S
from repro.common.statistics import StatGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, typing only
    from repro.caches.base_cache import SetAssociativeCache

# A filter-invalidation listener receives (line_address) and invalidates any
# copy its filter cache holds.  Registered per core by the MuonTrap memory
# system; other memory systems register nothing.
FilterInvalidationListener = Callable[[int], None]


@dataclass(frozen=True, slots=True)
class SnoopResult:
    """What snooping the other private caches found for one line."""

    dirty_owner: Optional[int] = None
    exclusive_owner: Optional[int] = None
    sharers: Tuple[int, ...] = ()


#: The result of every snoop that finds no copy; immutable, so it is shared.
_NO_COPIES = SnoopResult()


class CoherenceBus:
    """Registry of private caches plus snoop/broadcast primitives."""

    def __init__(self, stats: Optional[StatGroup] = None,
                 snoop_latency: int = 8,
                 dirty_transfer_latency: int = 12,
                 snoop_filter: Optional[SnoopFilter] = None,
                 scoped_filter_invalidate: bool = False) -> None:
        self.snoop_latency = snoop_latency
        self.dirty_transfer_latency = dirty_transfer_latency
        self.snoop_filter = snoop_filter
        #: The insecure ablation of ProtectionConfig
        #: ``insecure_scoped_invalidate``: scope the filter-cache
        #: invalidation multicast by the directory instead of broadcasting.
        self.scoped_filter_invalidate = scoped_filter_invalidate
        self._private_caches: Dict[int, List["SetAssociativeCache"]] = {}
        self._filter_listeners: Dict[int, List[FilterInvalidationListener]] = {}
        #: Cores with at least one registered listener (hot-path lookups).
        self._filter_listener_cores: set = set()
        stats = stats or StatGroup("bus")
        self.stats = stats
        self._snoops = stats.counter("snoops")
        self._nacks = stats.counter("nacks", "speculative requests delayed")
        self._filter_broadcasts = stats.counter(
            "filter_invalidate_broadcasts",
            "exclusive upgrades that had to broadcast to filter caches")
        self._downgrades = stats.counter("downgrades")
        self._invalidations = stats.counter("invalidations")

    # -- registration -------------------------------------------------------
    def register_private_cache(self, core_id: int,
                               cache: "SetAssociativeCache") -> None:
        """Register one of a core's private caches (repeatable per core)."""
        self._private_caches.setdefault(core_id, []).append(cache)

    def register_filter_listener(self, core_id: int,
                                 listener: FilterInvalidationListener) -> None:
        self._filter_listeners.setdefault(core_id, []).append(listener)
        self._filter_listener_cores.add(core_id)

    def has_peer_filter_listeners(self, requester: int) -> bool:
        """True when another core's filter cache listens for invalidates.

        The invalidation multicast is a *fabric* property: any core's
        exclusive upgrade must reach every protected filter cache on the
        bus, regardless of the writer's own scheme — on a mixed machine an
        unprotected writer's store would otherwise leave a stale
        (secret-dependent) line in a MuonTrap peer's filter.  O(1): this
        sits on the per-store hot path.
        """
        cores = self._filter_listener_cores
        return len(cores) > 1 or (bool(cores) and requester not in cores)

    @property
    def core_ids(self) -> List[int]:
        return sorted(self._private_caches)

    def private_caches(self, core_id: int) -> List["SetAssociativeCache"]:
        return self._private_caches[core_id]

    # -- snoop-filter bookkeeping --------------------------------------------
    def note_fill(self, core_id: int, line_address: int) -> None:
        """A private cache of ``core_id`` gained a copy of the line."""
        if self.snoop_filter is not None:
            self.snoop_filter.record_fill(core_id, line_address)

    # -- snooping -----------------------------------------------------------
    def snoop(self, requester: int, line_address: int) -> SnoopResult:
        """Find where (other than the requester) the line currently lives."""
        self._snoops.value += 1
        snoop_filter = self.snoop_filter
        if (snoop_filter is not None and snoop_filter.precise
                and not snoop_filter.needs_snoop(requester, line_address)):
            # The directory proves no other core holds the line; probing
            # every cache would find exactly this empty result.
            return _NO_COPIES
        dirty_owner = exclusive_owner = None
        sharers: List[int] = []
        for core_id, caches in self._private_caches.items():
            if core_id == requester:
                continue
            strongest: Optional[CoherenceState] = None
            for cache in caches:
                line = cache.probe(line_address)
                if line is None:
                    continue
                state = line.state
                if state is M:
                    strongest = state
                    break
                if state is E:
                    strongest = state
                elif strongest is None:
                    strongest = state
            if strongest is None:
                continue
            if strongest is M:
                dirty_owner = core_id
            elif strongest is E:
                exclusive_owner = core_id
            else:
                sharers.append(core_id)
        if dirty_owner is None and exclusive_owner is None and not sharers:
            return _NO_COPIES
        return SnoopResult(dirty_owner, exclusive_owner, tuple(sharers))

    def record_nack(self) -> None:
        self._nacks.value += 1

    # -- state-changing broadcasts -------------------------------------------
    def downgrade_core(self, core_id: int, line_address: int,
                       to_state: CoherenceState = S) -> int:
        """Downgrade every private cache of one core; returns copies touched."""
        touched = 0
        for cache in self._private_caches.get(core_id, ()):
            if cache.downgrade(line_address, to_state) is not None:
                touched += 1
        if touched:
            if to_state is I:
                self._invalidations.value += 1
            else:
                self._downgrades.value += 1
        if to_state is I and self.snoop_filter is not None:
            # All of the core's private caches lost the line, so the
            # directory entry can be retired safely.
            self.snoop_filter.record_eviction(core_id, line_address)
        return touched

    def downgrade_others(self, requester: int, line_address: int,
                         to_state: CoherenceState = S) -> int:
        """Downgrade every other core's copies; returns cores touched."""
        touched = 0
        for core_id in self._private_caches:
            if core_id == requester:
                continue
            if self.downgrade_core(core_id, line_address, to_state):
                touched += 1
        return touched

    def invalidate_others(self, requester: int, line_address: int) -> int:
        return self.downgrade_others(requester, line_address, I)

    def filter_invalidate_scope_skips(self, requester: int,
                                      line_address: int) -> bool:
        """Whether the scoped ablation would skip the multicast *now*.

        Must be evaluated before the upgrade's ``invalidate_others`` runs:
        that call retires the peers' directory entries, so a later lookup
        would always see an empty sharer set and skip unconditionally.
        """
        return (self.scoped_filter_invalidate
                and self.snoop_filter is not None
                and self.snoop_filter.precise
                and not self.snoop_filter.needs_snoop(requester,
                                                      line_address))

    def broadcast_filter_invalidate(self, requester: int, line_address: int,
                                    scope_skip: Optional[bool] = None
                                    ) -> bool:
        """Invalidate the line in every other core's filter cache.

        Used on exclusive upgrades when the writer did not already hold the
        line privately (section 4.5); Figure 7 reports how often this is
        needed.  The broadcast is deliberately *not* scoped by the snoop
        filter: filter caches are invisible to the directory, and the paper
        requires the broadcast to be timing-invariant.

        The ``scoped_filter_invalidate`` ablation deliberately breaks that
        rule: when the (precise) directory proves no *non-speculative*
        cache of another core holds the line, the multicast is skipped
        entirely — cheaper, but a peer's speculatively filled filter line
        then survives the upgrade, which is exactly the stale-copy timing
        channel the paper's timing-invariance argument closes.

        Returns whether the multicast was actually performed (True even
        with zero listeners on the bus — the transaction still goes out,
        which is what Figure 7 counts); False only on the scoped skip.
        ``scope_skip`` carries the directory verdict captured *before* the
        upgrade's invalidations purged the sharer set (see
        :meth:`filter_invalidate_scope_skips`); when omitted the current
        directory state is consulted.
        """
        if scope_skip is None:
            scope_skip = self.filter_invalidate_scope_skips(requester,
                                                            line_address)
        if scope_skip:
            return False
        self._filter_broadcasts.value += 1
        for core_id, listeners in self._filter_listeners.items():
            if core_id == requester:
                continue
            for listener in listeners:
                listener(line_address)
        return True

    # -- observability ---------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Emit coherence trace events (snoops, NACKs, downgrades,
        invalidations, filter-invalidate broadcasts) from this bus.

        Instance-attribute wrappers shadow the class methods, so an
        untraced bus pays nothing (the zero-cost-when-disabled contract of
        :mod:`repro.telemetry`).  Registered filter-invalidation listeners
        are re-wrapped in place: they were bound before tracing was
        attached, so the per-filter install-site wrappers never see
        broadcast-path invalidations.  Events are stamped with the
        tracer's cycle cursor (the bus methods carry no timestamp).
        """
        emit = tracer.emit
        inner_snoop = self.snoop
        inner_nack = self.record_nack
        inner_downgrade = self.downgrade_core
        inner_broadcast = self.broadcast_filter_invalidate

        def snoop(requester: int, line_address: int) -> SnoopResult:
            result = inner_snoop(requester, line_address)
            emit("coherence", "snoop", core=requester, address=line_address,
                 dirty_owner=result.dirty_owner,
                 exclusive_owner=result.exclusive_owner,
                 sharers=len(result.sharers))
            return result

        def record_nack() -> None:
            inner_nack()
            emit("coherence", "nack")

        def downgrade_core(core_id: int, line_address: int,
                           to_state: CoherenceState = S) -> int:
            touched = inner_downgrade(core_id, line_address, to_state)
            if touched:
                emit("coherence",
                     "invalidate" if to_state is I else "downgrade",
                     core=core_id, address=line_address,
                     state=to_state.name, copies=touched)
            return touched

        def broadcast_filter_invalidate(requester: int, line_address: int,
                                        scope_skip: Optional[bool] = None
                                        ) -> bool:
            performed = inner_broadcast(requester, line_address, scope_skip)
            if performed:
                emit("coherence", "filter_invalidate_broadcast",
                     core=requester, address=line_address)
            return performed

        def traced_listener(listener: FilterInvalidationListener,
                            core_id: int) -> FilterInvalidationListener:
            def invalidate(line_address: int):
                present = listener(line_address)
                if present:
                    emit("filter", "invalidate", core=core_id,
                         address=line_address, broadcast=True)
                return present
            return invalidate

        for core_id, listeners in self._filter_listeners.items():
            self._filter_listeners[core_id] = [
                traced_listener(listener, core_id) for listener in listeners]
        self.snoop = snoop
        self.record_nack = record_nack
        self.downgrade_core = downgrade_core
        self.broadcast_filter_invalidate = broadcast_filter_invalidate

    @property
    def nacks(self) -> int:
        return self._nacks.value

    @property
    def filter_broadcasts(self) -> int:
        return self._filter_broadcasts.value

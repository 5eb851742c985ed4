"""Cache line metadata.

A :class:`CacheLine` exists only while it is resident in an L1, private L2
or shared LLC: a fill builds it, and an eviction or invalidation drops it,
so an empty way holds no object at all.  It carries what those caches read
(physical line address, MESI state, dirty bit, LRU timestamp, prefetch
status) and the way it occupies.  The MuonTrap filter caches keep their own,
smaller :class:`~repro.core.filter_cache.FilterLine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coherence.states import CoherenceState


@dataclass(slots=True, eq=False)
class CacheLine:
    """Metadata for one resident line (the data payload is not modelled).

    Lines compare by identity, so a scan for an empty way (``None in
    ways``) never calls a generated ``__eq__``.
    """

    address: int
    state: CoherenceState
    dirty: bool = False
    last_use: int = 0
    # Prefetch support: lines installed by a prefetcher are not "demanded"
    # until a real access touches them, and may still be in flight.
    prefetched: bool = False
    ready_at: int = 0
    way: int = 0

    @property
    def valid(self) -> bool:
        return self.state.is_valid

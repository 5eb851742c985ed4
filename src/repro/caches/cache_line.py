"""Cache line metadata.

A :class:`CacheLine` carries the state every cache in the hierarchy needs
(physical tag, MESI state, dirty bit, LRU timestamp) plus the extra fields
the MuonTrap filter caches use: the *committed* bit of section 4.2, the
virtual tag of section 4.4, the ``SE`` pseudo-state flag of section 4.5 and
the fill-level tag that directs commit-time prefetch notifications
(section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.coherence.states import CoherenceState, I


@dataclass(slots=True)
class CacheLine:
    """Metadata for a single cache line (the data payload is not modelled)."""

    address: int = 0
    state: CoherenceState = I
    dirty: bool = False
    last_use: int = 0
    # Prefetch support: lines installed by a prefetcher are not "demanded"
    # until a real access touches them, and may still be in flight.
    prefetched: bool = False
    ready_at: int = 0
    # -- filter-cache specific fields (unused by non-speculative caches) ---
    committed: bool = False
    virtual_tag: Optional[int] = None
    owner_process: Optional[int] = None
    se_upgrade_pending: bool = False
    fill_level: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.state.is_valid

    def invalidate(self) -> None:
        """Reset the line to the invalid state, clearing all metadata."""
        self.state = I
        self.dirty = False
        self.prefetched = False
        self.committed = False
        self.virtual_tag = None
        self.owner_process = None
        self.se_upgrade_pending = False
        self.fill_level = None

    def touch(self, now: int) -> None:
        """Record a use for LRU replacement."""
        self.last_use = now

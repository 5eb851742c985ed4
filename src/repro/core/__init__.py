"""MuonTrap: the speculative filter caches and the protected memory system."""

from repro.core.domains import (
    DomainKind,
    DomainTracker,
    ProtectionDomain,
)
from repro.core.filter_cache import SpeculativeFilterCache
from repro.core.frontend import CoreState, SchemeFrontend
from repro.core.muontrap import MuonTrapMemorySystem

__all__ = [
    "CoreState",
    "DomainKind",
    "DomainTracker",
    "MuonTrapMemorySystem",
    "ProtectionDomain",
    "SchemeFrontend",
    "SpeculativeFilterCache",
]

"""MESI coherence: states, snooping bus, controller and snoop filter."""

from repro.coherence.bus import CoherenceBus, SnoopResult
from repro.coherence.protocol import CoherenceController
from repro.coherence.snoop_filter import SnoopFilter
from repro.coherence.states import CoherenceState, E, I, M, S

__all__ = [
    "CoherenceBus",
    "CoherenceController",
    "CoherenceState",
    "E",
    "I",
    "M",
    "S",
    "SnoopFilter",
    "SnoopResult",
]

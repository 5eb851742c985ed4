"""Address translation: the TLBs, the speculative filter TLB and the page walk."""

from repro.tlb.mmu import MMU

__all__ = [
    "MMU",
]

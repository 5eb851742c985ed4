"""TLBs, the speculative filter TLB and the page-table walker."""

from repro.tlb.filter_tlb import FilterTLB
from repro.tlb.page_walker import MMU, PageTableWalker
from repro.tlb.tlb import TLB

__all__ = [
    "FilterTLB",
    "MMU",
    "PageTableWalker",
    "TLB",
]

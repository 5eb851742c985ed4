"""Main-memory latency model and per-process page tables."""

from repro.memory.main_memory import MainMemory
from repro.memory.page_table import (
    AddressSpace,
    PageTableManager,
    PhysicalFrameAllocator,
)

__all__ = [
    "AddressSpace",
    "MainMemory",
    "PageTableManager",
    "PhysicalFrameAllocator",
]

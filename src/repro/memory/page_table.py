"""Per-process page tables and virtual-to-physical translation.

Each simulated process owns an :class:`AddressSpace`.  Translation is
allocate-on-touch: the first access to a virtual page allocates a physical
frame from a global frame allocator.  Pages may also be explicitly mapped as
*shared* between two address spaces, which is what the cross-process attacks
in the paper rely on (shared libraries or page-deduplicated data between
attacker and victim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.addresses import page_number


class PhysicalFrameAllocator:
    """Hands out unique physical frame numbers across all processes."""

    def __init__(self, page_size: int = 4096) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self._next_frame = 1  # frame 0 reserved so "0" is never a valid PA

    def allocate(self) -> int:
        frame = self._next_frame
        self._next_frame += 1
        return frame


@dataclass
class AddressSpace:
    """The virtual address space of one simulated process."""

    process_id: int
    allocator: PhysicalFrameAllocator
    page_size: int = 4096
    #: Virtual page number -> physical frame number.
    entries: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page size must be a power of two")
        self._page_shift = self.page_size.bit_length() - 1

    def translate(self, virtual_address: int) -> int:
        """Translate ``virtual_address``; allocate a frame on first touch."""
        vpn = virtual_address >> self._page_shift
        frame = self.entries.get(vpn)
        if frame is None:
            frame = self.entries[vpn] = self.allocator.allocate()
        return (frame * self.page_size
                + (virtual_address & (self.page_size - 1)))

    def map_page(self, virtual_address: int, frame: int) -> None:
        """Install an explicit mapping (used to create shared pages)."""
        self.entries[page_number(virtual_address, self.page_size)] = frame

    def share_page_with(self, other: "AddressSpace", my_virtual: int,
                        their_virtual: Optional[int] = None) -> int:
        """Map one of my pages into ``other`` at ``their_virtual``.

        Returns the shared physical frame number.  This models shared
        libraries / shared memory, the prerequisite of Attacks 1 and 3.
        """
        frame = page_number(self.translate(my_virtual), self.page_size)
        target_virtual = my_virtual if their_virtual is None else their_virtual
        other.map_page(target_virtual, frame)
        return frame


class PageTableManager:
    """Creates address spaces and keeps them sharing one frame allocator."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.allocator = PhysicalFrameAllocator(page_size)
        self._spaces: Dict[int, AddressSpace] = {}

    def address_space(self, process_id: int) -> AddressSpace:
        space = self._spaces.get(process_id)
        if space is None:
            space = self._spaces[process_id] = AddressSpace(
                process_id=process_id, allocator=self.allocator,
                page_size=self.page_size)
        return space

    def __contains__(self, process_id: int) -> bool:
        return process_id in self._spaces

    def __len__(self) -> int:
        return len(self._spaces)

"""Address arithmetic helpers.

Addresses are plain integers throughout the simulator.  Virtual and physical
addresses share the same representation; translation is handled by
:mod:`repro.memory.page_table`.  The helpers here centralise the line/page
alignment arithmetic that every cache and TLB needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

DEFAULT_LINE_SIZE = 64
DEFAULT_PAGE_SIZE = 4096


def block_align(address: int, block_size: int = DEFAULT_LINE_SIZE) -> int:
    """Round ``address`` down to the start of its block."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError("block size must be a power of two")
    return address & -block_size


def block_offset(address: int, block_size: int = DEFAULT_LINE_SIZE) -> int:
    """Offset of ``address`` within its block."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError("block size must be a power of two")
    return address & (block_size - 1)


def block_number(address: int, block_size: int = DEFAULT_LINE_SIZE) -> int:
    """Index of the block containing ``address``."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError("block size must be a power of two")
    return address >> block_size.bit_length() - 1


def page_align(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Round ``address`` down to the start of its page."""
    return block_align(address, page_size)


def page_number(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Virtual or physical page number of ``address``."""
    return block_number(address, page_size)


def page_offset(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Offset of ``address`` within its page."""
    return block_offset(address, page_size)


def set_index(address: int, num_sets: int,
              block_size: int = DEFAULT_LINE_SIZE) -> int:
    """Cache set index for ``address`` under the usual modulo mapping."""
    if num_sets <= 0:
        raise ValueError("number of sets must be positive")
    return block_number(address, block_size) % num_sets


def lines_covering(start: int, length: int,
                   block_size: int = DEFAULT_LINE_SIZE) -> Iterator[int]:
    """Yield the line-aligned addresses covering ``[start, start + length)``."""
    if length <= 0:
        return
    address = block_align(start, block_size)
    end = start + length
    while address < end:
        yield address
        address += block_size


@dataclass(frozen=True)
class AddressRange:
    """A half-open range of addresses ``[base, base + size)``."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def lines(self, block_size: int = DEFAULT_LINE_SIZE) -> Iterable[int]:
        return lines_covering(self.base, self.size, block_size)

"""A simple DRAM latency model.

The paper's system uses DDR3-1600 behind a 2 MiB L2.  For the timing shapes
we need (L2 miss costs two orders of magnitude more than a filter-cache hit)
a fixed access latency plus a small, deterministic bank-conflict penalty is
sufficient.  The model also counts accesses so experiments can report memory
traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import MemoryConfig
from repro.common.statistics import StatGroup


class MainMemory:
    """Terminal of the cache hierarchy: always hits, at DRAM latency."""

    def __init__(self, config: Optional[MemoryConfig] = None,
                 stats: Optional[StatGroup] = None,
                 num_banks: int = 8, bank_conflict_penalty: int = 20) -> None:
        self.config = config or MemoryConfig()
        line_size = self.config.line_size
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self._line_shift = line_size.bit_length() - 1
        self.num_banks = num_banks
        self.bank_conflict_penalty = bank_conflict_penalty
        stats = stats or StatGroup("memory")
        self._reads = stats.counter("reads", "line reads served")
        self._writes = stats.counter("writes", "line writebacks received")
        self._busy_until = [0] * num_banks
        self.stats = stats

    def read(self, address: int, now: int = 0) -> int:
        """Read one line; returns the access latency in cycles."""
        self._reads.value += 1
        bank = (address >> self._line_shift) % self.num_banks
        latency = self.config.access_latency
        if now < self._busy_until[bank]:
            latency += self.bank_conflict_penalty
        self._busy_until[bank] = now + latency
        return latency

    def write(self, address: int, now: int = 0) -> int:
        """Accept a writeback; returns the occupancy cost in cycles."""
        self._writes.value += 1
        bank = (address >> self._line_shift) % self.num_banks
        latency = self.config.access_latency
        self._busy_until[bank] = now + latency
        return latency

    @property
    def total_reads(self) -> int:
        return self._reads.value

    @property
    def total_writes(self) -> int:
        return self._writes.value

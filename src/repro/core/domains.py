"""Protection-domain tracking.

MuonTrap clears its filter structures whenever execution crosses a
protection-domain boundary: a context switch between processes, a system
call into the kernel, or entry into (or out of) a sandboxed region of the
same process (sections 4.3 and 4.9).  This module provides a small per-core
tracker that records the current domain and counts the crossings.  It has
no listeners: a memory system that flushes on a crossing (MuonTrap) does so
in its own control-event methods, right after the tracker switches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.common.statistics import StatGroup


class DomainKind(enum.Enum):
    """The kinds of protection domain the threat model distinguishes."""

    USER_PROCESS = "user-process"
    KERNEL = "kernel"
    SANDBOX = "sandbox"


@dataclass(frozen=True)
class ProtectionDomain:
    """One protection domain: a process, the kernel, or a sandbox within one."""

    domain_id: int
    kind: DomainKind = DomainKind.USER_PROCESS
    process_id: int = 0
    label: str = ""


@dataclass
class DomainTracker:
    """Tracks the protection domain currently executing on one core."""

    core_id: int = 0
    current: ProtectionDomain = field(default_factory=lambda: ProtectionDomain(
        domain_id=0, kind=DomainKind.USER_PROCESS, process_id=0,
        label="process-0"))
    stats: StatGroup = field(default_factory=lambda: StatGroup("domains"))

    def __post_init__(self) -> None:
        self._context_switches = self.stats.counter("context_switches")
        self._syscalls = self.stats.counter("syscall_entries")
        self._sandbox_entries = self.stats.counter("sandbox_entries")

    # -- the three boundary crossings of section 4.3 ----------------------------
    def context_switch(self, to_process: int,
                       label: Optional[str] = None) -> ProtectionDomain:
        """Switch to a different process (always a flush boundary)."""
        self._context_switches.increment()
        domain = ProtectionDomain(
            domain_id=to_process, kind=DomainKind.USER_PROCESS,
            process_id=to_process,
            label=label or f"process-{to_process}")
        self.current = domain
        return domain

    def syscall(self) -> ProtectionDomain:
        """Enter the kernel on behalf of the current process."""
        self._syscalls.increment()
        domain = ProtectionDomain(
            domain_id=-1, kind=DomainKind.KERNEL,
            process_id=self.current.process_id, label="kernel")
        self.current = domain
        return domain

    def sandbox_entry(self, sandbox_id: int,
                      label: Optional[str] = None) -> ProtectionDomain:
        """Cross into a sandboxed region within the current process."""
        self._sandbox_entries.increment()
        domain = ProtectionDomain(
            domain_id=sandbox_id, kind=DomainKind.SANDBOX,
            process_id=self.current.process_id,
            label=label or f"sandbox-{sandbox_id}")
        self.current = domain
        return domain

    def sandbox_exit(self) -> ProtectionDomain:
        """Return from the sandbox to the enclosing process code."""
        self._sandbox_entries.increment()
        domain = ProtectionDomain(
            domain_id=self.current.process_id, kind=DomainKind.USER_PROCESS,
            process_id=self.current.process_id,
            label=f"process-{self.current.process_id}")
        self.current = domain
        return domain

    @property
    def context_switches(self) -> int:
        return self._context_switches.value

    @property
    def sandbox_entries(self) -> int:
        return self._sandbox_entries.value

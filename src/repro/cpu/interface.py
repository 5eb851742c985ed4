"""The interface between the out-of-order core and a memory system.

Every protection scheme provides a :class:`MemorySystem`.  The core calls
it for speculative loads, stores and instruction fetches as they execute,
again at commit, and on squashes and protection-domain switches.  A
request names the core, the process, the virtual address and the cycle;
it carries no pc, because nothing on the memory side reads one.  The
returned :class:`MemoryAccessResult` carries both the latency (the core's
scheduling input) and the metadata the experiments and attacks inspect.

The five built-in schemes (unprotected, insecure-L0, MuonTrap, InvisiSpec,
STT) derive from :class:`~repro.core.frontend.SchemeFrontend`, which holds
their shared per-core translation and protection-domain state; a scheme
may also implement this interface directly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


@dataclass(slots=True)
class MemoryAccessResult:
    """Result of one memory-system request issued by the core."""

    latency: int
    hit_level: str = "l1"
    #: The request could not be performed speculatively (MuonTrap's reduced
    #: coherency speculation NACK); the core must retry it once the
    #: instruction is no longer speculative.
    must_retry_nonspeculative: bool = False

    @property
    def served(self) -> bool:
        return not self.must_retry_nonspeculative


class MemorySystem(abc.ABC):
    """Abstract memory system driven by :class:`repro.cpu.core.OutOfOrderCore`."""

    #: Human-readable mode name, used in experiment reports.
    name: str = "memory-system"

    def frontend(self, core_id: int) -> "MemorySystem":
        """The memory system one core should be driven against.

        A single-scheme system serves every core itself.  The
        heterogeneous container (:mod:`repro.sim.hetero`) has the same
        method and returns the core's own scheme frontend.
        """
        return self

    # -- execute-time (possibly speculative, possibly wrong-path) -------------
    @abc.abstractmethod
    def load(self, core_id: int, process_id: int, virtual_address: int,
             now: int, *, speculative: bool) -> MemoryAccessResult:
        """A load issues from the load queue."""

    @abc.abstractmethod
    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool) -> MemoryAccessResult:
        """A store's address is resolved (it may prefetch, but not write)."""

    @abc.abstractmethod
    def fetch(self, core_id: int, process_id: int, virtual_address: int,
              now: int, *, speculative: bool) -> MemoryAccessResult:
        """An instruction-cache access on the (possibly wrong) fetch path."""

    # -- commit-time ------------------------------------------------------------
    def commit_load(self, core_id: int, process_id: int, virtual_address: int,
                    now: int) -> int:
        """The load reaches in-order commit; returns extra commit latency.

        The default does nothing, and the core's packed run loop skips the
        call for a scheme that keeps it.
        """
        return 0

    @abc.abstractmethod
    def commit_store(self, core_id: int, process_id: int, virtual_address: int,
                     now: int) -> int:
        """The store commits and performs its write; returns commit latency."""

    def commit_fetch(self, core_id: int, process_id: int,
                     virtual_address: int, now: int) -> None:
        """The instruction at ``virtual_address`` commits.

        It adds no commit latency.  Like :meth:`commit_load`, the default
        does nothing and is skipped.
        """

    # -- control events ----------------------------------------------------------
    def squash(self, core_id: int, now: int) -> None:
        """The core squashed mis-speculated instructions."""

    def context_switch(self, core_id: int, now: int) -> None:
        """The OS switches protection domain on this core."""

    def sandbox_entry(self, core_id: int, now: int) -> None:
        """Execution crosses into a sandboxed region within the process."""

    def drain(self, core_id: int, now: int) -> None:
        """Called at the end of simulation so buffers can flush statistics."""

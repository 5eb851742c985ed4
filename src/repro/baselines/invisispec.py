"""A behavioural model of InvisiSpec (Yan et al., MICRO 2018).

InvisiSpec hides speculative loads by placing their data in per-load-queue
speculative buffers that are invisible to the cache hierarchy and the
coherence protocol.  When a load reaches its *visibility point* it must make
a second access to the memory system (validation or exposure) that actually
fills the caches; validation is on the critical path of commit.  Two
variants are modelled, matching the ones re-evaluated in the paper:

* ``InvisiSpec-Spectre`` — a load becomes visible once all older branches
  have resolved.
* ``InvisiSpec-Future`` — a load only becomes visible when it can no longer
  be squashed, i.e. effectively at commit.

The per-word speculative buffer means there is no reuse across loads: every
speculative load pays the full hierarchy latency even when a previous
in-flight load touched the same line, and the validation access is what
installs the line in the L1.  These two properties are what produce the
9.7% / 18.5% SPEC overheads and the up-to-2x Parsec overheads the paper
reports for InvisiSpec.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.common.params import SystemConfig
from repro.core.frontend import SchemeFrontend
from repro.cpu.interface import MemoryAccessResult


class InvisiSpecMemorySystem(SchemeFrontend):
    """Speculative-buffer loads with validation/exposure at the visibility point.

    InvisiSpec does not protect the instruction cache, so fetches take the
    unprotected :meth:`SchemeFrontend.fetch`.
    """

    def __init__(self, config: SystemConfig, future_variant: bool = False,
                 **kwargs) -> None:
        self.future_variant = future_variant
        self.name = ("invisispec-future" if future_variant
                     else "invisispec-spectre")
        super().__init__(config, **kwargs)
        # The (core, line) pairs whose data sits in a speculative buffer.
        # The data itself is never modelled, only whether it is buffered.
        self._buffers: Set[Tuple[int, int]] = set()
        self._speculative_loads = self.stats.counter(
            "speculative_buffer_fills")
        self._validations = self.stats.counter("validation_accesses")

    # -- execute-time -----------------------------------------------------------
    def load(self, core_id: int, process_id: int, virtual_address: int,
             now: int, *, speculative: bool) -> MemoryAccessResult:
        physical, tlb_latency = self._cores[core_id].data_mmu.translate(
            process_id, virtual_address, speculative)
        line = self.hierarchy.line_address(physical)
        if not speculative:
            latency, hit_level = self.hierarchy.access(
                core_id, physical, now + tlb_latency, speculative=False)
            return MemoryAccessResult(tlb_latency + latency, hit_level)
        # Speculative load: data goes only into the per-load speculative
        # buffer.  It may read the caches but must not change them, so an L1
        # hit is cheap while a miss pays the full downstream latency without
        # filling anything.
        l1 = self.hierarchy.l1d(core_id)
        latency, l1_line = l1.access(line, now)
        if l1_line is not None:
            fill_level = "l1"
        else:
            below, fill_level, _ = self.hierarchy.controller.read(
                core_id, line, now + tlb_latency, speculative=True,
                protect_coherence=False, fill_l2=False)
            # The speculative access still occupies a miss-tracking slot.
            l1.mshrs.allocate(line, now, below)
            latency += below
            if fill_level in ("l2", "memory"):
                # InvisiSpec does not protect the prefetcher: speculative
                # loads train it exactly as in the unprotected system.
                self.hierarchy.train_l2_prefetcher(line, now)
        self._speculative_loads.value += 1
        self._buffers.add((core_id, line))
        return MemoryAccessResult(tlb_latency + latency,
                                  f"specbuf-{fill_level}")

    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool) -> MemoryAccessResult:
        # InvisiSpec does not let speculative stores touch the hierarchy.
        _, tlb_latency = self._cores[core_id].data_mmu.translate(
            process_id, virtual_address, speculative)
        return MemoryAccessResult(tlb_latency + 1, "sq")

    # -- the visibility-point re-access --------------------------------------------
    def validation_latency(self, core_id: int, process_id: int,
                           virtual_address: int, now: int) -> int:
        """The second (validation/exposure) access for one speculative load.

        Called by the core model at the load's visibility point (branch
        resolution for the Spectre variant, commit for the Future variant).
        It performs a real hierarchy access that fills the L1, and its
        latency is charged against commit.
        """
        physical = self._cores[core_id].data_mmu.commit_translation(
            process_id, virtual_address)
        line = self.hierarchy.line_address(physical)
        self._validations.value += 1
        self._buffers.discard((core_id, line))
        # The validation is a repeat of an access the prefetcher has already
        # been trained on, so it does not train again.
        return self.hierarchy.access(core_id, physical, now,
                                     speculative=False,
                                     train_prefetcher=False)[0]

    # -- commit-time ------------------------------------------------------------------
    # A committed load does nothing (the inherited no-op commit_load): the
    # core model charges the validation itself, since it knows the
    # visibility point.
    def commit_store(self, core_id: int, process_id: int, virtual_address: int,
                     now: int) -> int:
        physical = self._cores[core_id].data_mmu.commit_translation(
            process_id, virtual_address)
        latency, _, _ = self.hierarchy.commit_store(
            core_id, physical, now, broadcast_to_filters=False)
        return min(latency, self.hierarchy.l1d(core_id).config.hit_latency)

    # -- control events -----------------------------------------------------------------
    def squash(self, core_id: int, now: int) -> None:
        # Squashed loads simply abandon their speculative-buffer entries.
        self._buffers = {key for key in self._buffers if key[0] != core_id}

    # -- introspection ---------------------------------------------------------------------
    def speculative_buffer_contains(self, core_id: int,
                                    physical_address: int) -> bool:
        line = self.hierarchy.line_address(physical_address)
        return (core_id, line) in self._buffers

    @property
    def validations(self) -> int:
        return self._validations.value


# -- scheme registration ------------------------------------------------------
from repro.schemes import SchemeSpec, _register_builtin


def _build_invisispec_spectre(config, **kwargs):
    return InvisiSpecMemorySystem(config, future_variant=False, **kwargs)


def _build_invisispec_future(config, **kwargs):
    return InvisiSpecMemorySystem(config, future_variant=True, **kwargs)


_register_builtin(SchemeSpec(
    name="invisispec-spectre",
    factory=_build_invisispec_spectre,
    display_name="InvisiSpec-Spectre",
    description="Speculative loads buffered and validated at commit "
                "(Spectre threat model).",
    timing_invariant=True,
    uses_speculative_buffers=True,
    figure_series=True,
    builtin=True))

_register_builtin(SchemeSpec(
    name="invisispec-future",
    factory=_build_invisispec_future,
    display_name="InvisiSpec-Future",
    description="InvisiSpec under the futuristic threat model (loads stay "
                "invisible until they cannot be squashed).",
    timing_invariant=True,
    uses_speculative_buffers=True,
    figure_series=True,
    builtin=True))

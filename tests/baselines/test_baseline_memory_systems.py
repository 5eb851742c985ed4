"""Tests for the baseline and comparison memory systems."""

from repro.baselines.insecure_l0 import InsecureL0MemorySystem
from repro.baselines.invisispec import InvisiSpecMemorySystem
from repro.baselines.stt import STTMemorySystem
from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import SystemConfig


def cfg(mode="unprotected", cores=1):
    return SystemConfig(mode=mode, num_cores=cores)


class TestUnprotected:
    def test_speculative_load_fills_l1(self):
        memory = UnprotectedMemorySystem(cfg())
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.hierarchy.l1d(0).contains(physical)
        assert memory.hierarchy.l2.contains(physical)

    def test_second_access_is_a_hit(self):
        memory = UnprotectedMemorySystem(cfg())
        first = memory.load(0, 0, 0x1_0000, 100, speculative=True)
        second = memory.load(0, 0, 0x1_0000, 400, speculative=True)
        assert second.latency < first.latency
        assert second.hit_level == "l1"

    def test_speculative_store_gets_ownership(self):
        memory = UnprotectedMemorySystem(cfg())
        memory.store_address_ready(0, 0, 0x2_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x2_0000)
        assert memory.hierarchy.l1d(0).state_of(physical).can_write

    def test_context_switch_clears_nothing(self):
        memory = UnprotectedMemorySystem(cfg())
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        memory.switch_to_process(0, 7)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.hierarchy.l1d(0).contains(physical)


class TestInsecureL0:
    def test_l0_hit_after_fill(self):
        memory = InsecureL0MemorySystem(cfg("insecure-l0"))
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        repeat = memory.load(0, 0, 0x1_0000, 300, speculative=True)
        assert repeat.hit_level == "l0"
        assert repeat.latency == 1

    def test_l1_also_filled(self):
        memory = InsecureL0MemorySystem(cfg("insecure-l0"))
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.hierarchy.l1d(0).contains(physical)
        assert memory.data_filter(0).contains_physical(physical)


class TestInvisiSpec:
    def test_speculative_load_does_not_fill_any_cache(self):
        memory = InvisiSpecMemorySystem(cfg("invisispec-spectre"))
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert not memory.hierarchy.l1d(0).contains(physical)
        assert not memory.hierarchy.l2.contains(physical)
        assert memory.speculative_buffer_contains(0, physical)

    def test_validation_fills_l1_and_counts(self):
        memory = InvisiSpecMemorySystem(cfg("invisispec-future"))
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        latency = memory.validation_latency(0, 0, 0x1_0000, 400)
        assert latency > 0
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.hierarchy.l1d(0).contains(physical)
        assert memory.validations == 1

    def test_squash_discards_speculative_buffer(self):
        memory = InvisiSpecMemorySystem(cfg("invisispec-spectre"))
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        memory.squash(0, 200)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert not memory.speculative_buffer_contains(0, physical)

    def test_variant_names(self):
        spectre = InvisiSpecMemorySystem(cfg(), future_variant=False)
        future = InvisiSpecMemorySystem(cfg(), future_variant=True)
        assert spectre.name == "invisispec-spectre"
        assert future.name == "invisispec-future"


class TestSTT:
    def test_memory_side_matches_unprotected(self):
        memory = STTMemorySystem(cfg("stt-spectre"))
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.hierarchy.l1d(0).contains(physical)

    def test_delayed_forward_counter(self):
        memory = STTMemorySystem(cfg("stt-future"),
                                 future_variant=True)
        assert memory.delays_dependent_transmitters
        memory.record_delayed_forward()
        memory.record_delayed_forward()
        assert memory.delayed_forwards == 2

"""Tests for the MMU (main TLB, filter TLB and page walk) and page tables."""

import pytest

from repro.common.params import TLBConfig
from repro.memory.page_table import PageTableManager
from repro.telemetry import Tracer
from repro.tlb.mmu import MMU


def build(use_filter_tlb=True, **tlb):
    manager = PageTableManager()
    return manager, MMU(TLBConfig(**tlb), manager,
                        use_filter_tlb=use_filter_tlb)


class TestMMU:
    def test_walk_allocates_and_caches(self):
        manager, mmu = build()
        first, latency = mmu.translate(1, 0x8000, False)
        assert first == manager.address_space(1).translate(0x8000)
        assert latency == mmu.config.walk_latency
        assert mmu.stats.get("walker.walks") == 1
        second, latency = mmu.translate(1, 0x8000, False)
        assert second == first
        assert latency == mmu.config.hit_latency
        assert mmu.stats.get("walker.walks") == 1
        assert mmu.probe(1, 0x8000) == first >> 12

    def test_processes_translate_apart(self):
        _, mmu = build()
        mine, _ = mmu.translate(1, 0x1234_5678, False)
        theirs, _ = mmu.translate(2, 0x1234_5000, False)
        assert mine >> 12 != theirs >> 12
        assert mmu.stats.get("tlb.hits") == 0
        assert mmu.stats.get("tlb.misses") == 2
        assert mmu.translate(1, 0x1234_5000, False)[0] == mine - 0x678
        assert mmu.stats.get("tlb.hits") == 1

    def test_main_tlb_evicts_the_least_recently_used_page(self):
        _, mmu = build(entries=2)
        mmu.translate(1, 0x1000, False)
        mmu.translate(1, 0x2000, False)
        mmu.translate(1, 0x1000, False)     # refresh the first page
        mmu.translate(1, 0x3000, False)     # evicts page 2
        assert mmu.probe(1, 0x1000) is not None
        assert mmu.probe(1, 0x2000) is None
        assert mmu.stats.get("tlb.evictions") == 1

    def test_speculative_walk_fills_only_filter_tlb(self):
        _, mmu = build()
        physical, _ = mmu.translate(1, 0x9000, True)
        assert mmu.stats.get("walker.walks") == 1
        assert mmu.probe(1, 0x9000) is None
        assert mmu.probe_filter(1, 0x9000) == physical >> 12
        # Re-translating speculatively now hits the filter TLB.
        again, latency = mmu.translate(1, 0x9000, True)
        assert again == physical
        assert latency == mmu.config.hit_latency
        assert mmu.stats.get("walker.walks") == 1
        assert mmu.stats.get("filter_tlb.entries.hits") == 1

    def test_filter_tlb_evicts_the_least_recently_used_page(self):
        _, mmu = build(filter_entries=2)
        mmu.translate(1, 0x1000, True)
        mmu.translate(1, 0x2000, True)
        mmu.translate(1, 0x1000, True)      # refresh the first page
        mmu.translate(1, 0x3000, True)      # evicts page 2
        assert mmu.probe_filter(1, 0x1000) is not None
        assert mmu.probe_filter(1, 0x2000) is None
        assert mmu.probe_filter(1, 0x3000) is not None
        assert mmu.filter_occupancy() == 2
        assert mmu.stats.get("filter_tlb.entries.evictions") == 1
        # Speculative fills never touch the main TLB.
        assert mmu.stats.get("tlb.evictions") == 0
        assert all(mmu.probe(1, page) is None
                   for page in (0x1000, 0x2000, 0x3000))

    def test_commit_into_a_full_main_tlb_evicts_its_oldest_page(self):
        _, mmu = build(entries=2)
        mmu.translate(1, 0x1000, False)
        held, _ = mmu.translate(1, 0x2000, False)
        physical, _ = mmu.translate(1, 0x3000, True)
        assert mmu.commit_translation(1, 0x3000) == physical
        assert mmu.stats.get("filter_tlb.promotions") == 1
        assert mmu.probe(1, 0x1000) is None
        assert mmu.probe(1, 0x2000) is not None
        assert mmu.probe(1, 0x3000) == mmu.probe_filter(1, 0x3000)
        assert mmu.stats.get("tlb.evictions") == 1
        # Committing a page the main TLB already holds refreshes it and
        # evicts nothing.
        assert mmu.commit_translation(1, 0x2000) == held
        assert mmu.stats.get("filter_tlb.promotions") == 1
        mmu.translate(1, 0x4000, False)     # evicts page 3, not page 2
        assert mmu.probe(1, 0x2000) is not None
        assert mmu.probe(1, 0x3000) is None
        assert mmu.stats.get("tlb.evictions") == 2

    def test_commit_translation_promotes_or_rewalks(self):
        manager, mmu = build()
        physical, _ = mmu.translate(1, 0x9040, True)
        assert mmu.commit_translation(1, 0x9040) == physical
        assert mmu.probe(1, 0x9000) is not None
        assert mmu.probe_filter(1, 0x9000) is not None
        assert mmu.stats.get("filter_tlb.promotions") == 1
        # Committing a translation whose filter entry is gone re-translates
        # it through the page table, without counting a walk.
        mmu.context_switch()
        physical = mmu.commit_translation(1, 0xA040)
        assert physical == manager.address_space(1).translate(0xA040)
        assert mmu.probe(1, 0xA000) == physical >> 12
        assert mmu.stats.get("filter_tlb.promotions") == 1
        assert mmu.stats.get("walker.walks") == 1

    def test_context_switch_flushes_filter_tlb(self):
        _, mmu = build()
        mmu.translate(1, 0x9000, True)
        assert mmu.filter_occupancy() == 1
        mmu.context_switch()
        assert mmu.probe_filter(1, 0x9000) is None
        assert mmu.filter_occupancy() == 0
        assert mmu.stats.get("filter_tlb.flushes") == 1
        assert mmu.stats.get("filter_tlb.entries.flushes") == 1

    def test_without_a_filter_tlb_every_walk_fills_the_main_tlb(self):
        _, mmu = build(use_filter_tlb=False)
        physical, _ = mmu.translate(1, 0x9000, True)
        assert mmu.probe(1, 0x9000) == physical >> 12
        assert mmu.probe_filter(1, 0x9000) is None
        assert mmu.commit_translation(1, 0x9000) == physical
        mmu.context_switch()
        assert mmu.probe(1, 0x9000) == physical >> 12
        assert mmu.filter_occupancy() == 0

    def test_a_traced_mmu_emits_one_event_per_walk(self):
        manager, mmu = build()
        tracer = Tracer()
        mmu.attach_tracer(tracer, unit="dtlb", core=3)
        physical, _ = mmu.translate(1, 0x9040, True)
        mmu.translate(1, 0x9000, True)      # filter-TLB hit: no walk
        mmu.translate(1, 0xA000, False)
        assert mmu.stats.get("walker.walks") == 2
        assert [(event.category, event.name, event.core, event.address,
                 event.detail) for event in tracer.events] == [
            ("tlb", "walk", 3, 0x9040, {"unit": "dtlb", "fault": False}),
            ("tlb", "walk", 3, 0xA000, {"unit": "dtlb", "fault": False})]
        assert physical == manager.address_space(1).translate(0x9040)

    def test_a_filter_tlb_needs_an_entry(self):
        with pytest.raises(ValueError, match="tlb.filter_entries=0"):
            build(filter_entries=0)
        build(use_filter_tlb=False, filter_entries=0)

    def test_every_statistic_keeps_its_name(self):
        _, mmu = build()
        assert sorted(name for name, _ in mmu.stats.walk()) == sorted(
            f"mmu.{name}" for name in [
                "tlb.hits", "tlb.misses", "tlb.evictions", "tlb.flushes",
                "filter_tlb.promotions", "filter_tlb.flushes",
                "filter_tlb.entries.hits", "filter_tlb.entries.misses",
                "filter_tlb.entries.evictions", "filter_tlb.entries.flushes",
                "walker.walks", "walker.faults"])


class TestPageTables:
    def test_shared_pages_map_to_same_frame(self):
        manager = PageTableManager()
        a = manager.address_space(1)
        b = manager.address_space(2)
        frame = a.share_page_with(b, 0x2000_0000)
        pa = a.translate(0x2000_0040)
        pb = b.translate(0x2000_0040)
        assert pa == pb == frame * 4096 + 0x40

    def test_distinct_processes_get_distinct_frames(self):
        manager = PageTableManager()
        a = manager.address_space(1)
        b = manager.address_space(2)
        assert a.translate(0x1000) != b.translate(0x1000)

    def test_manager_caches_address_spaces(self):
        manager = PageTableManager()
        assert manager.address_space(1) is manager.address_space(1)
        assert 1 in manager and len(manager) == 1

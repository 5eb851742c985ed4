"""Tests for the TLBs, the filter TLB and the MMU/page-table walker."""

from repro.common.params import TLBConfig
from repro.memory.page_table import PageTableManager
from repro.tlb.filter_tlb import FilterTLB
from repro.tlb.page_walker import MMU
from repro.tlb.tlb import TLB


class TestTLB:
    def test_insert_lookup(self):
        tlb = TLB(entries=4)
        tlb.insert(1, 0x1234_5000, frame=7)
        assert tlb.lookup(1, 0x1234_5678) == 7
        assert tlb.lookup(2, 0x1234_5000) is None
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(1, 0x1000, frame=1)
        tlb.insert(1, 0x2000, frame=2)
        tlb.lookup(1, 0x1000)            # refresh the first entry
        tlb.insert(1, 0x3000, frame=3)   # evicts vpn 2
        assert tlb.probe(1, 0x1000) is not None
        assert tlb.probe(1, 0x2000) is None

    def test_flush(self):
        tlb = TLB(entries=8)
        tlb.insert(1, 0x1000, frame=1)
        tlb.insert(2, 0x1000, frame=2)
        assert len(tlb) == 2
        assert tlb.flush() == 2
        assert len(tlb) == 0


class TestFilterTLB:
    def test_speculative_translations_stay_out_of_main_tlb(self):
        main = TLB(entries=8)
        filter_tlb = FilterTLB(main_tlb=main)
        filter_tlb.insert_speculative(1, 0x5000, frame=9)
        assert main.probe(1, 0x5000) is None
        assert filter_tlb.probe(1, 0x5000) is not None

    def test_commit_promotes_translation(self):
        main = TLB(entries=8)
        filter_tlb = FilterTLB(main_tlb=main)
        filter_tlb.insert_speculative(1, 0x5000, frame=9)
        assert filter_tlb.commit(1, 0x5000)
        assert main.probe(1, 0x5000) == 9
        assert filter_tlb.promotions == 1

    def test_flush_discards_speculative_translations(self):
        filter_tlb = FilterTLB()
        filter_tlb.insert_speculative(1, 0x5000, frame=9)
        assert filter_tlb.flush() == 1
        assert not filter_tlb.commit(1, 0x5000) or True  # already gone
        assert len(filter_tlb) == 0


class TestMMU:
    def test_walk_allocates_and_caches(self):
        manager = PageTableManager()
        space = manager.address_space(1)
        mmu = MMU(TLBConfig(), use_filter_tlb=True)
        first, latency = mmu.translate_address(space, 0x8000)
        assert first is not None
        assert latency == mmu.config.walk_latency
        assert mmu.stats.get("walker.walks") == 1
        second, latency = mmu.translate_address(space, 0x8000)
        assert second == first
        assert latency == mmu.config.hit_latency
        assert mmu.stats.get("walker.walks") == 1
        assert mmu.tlb.probe(1, 0x8000) is not None

    def test_speculative_walk_fills_only_filter_tlb(self):
        manager = PageTableManager()
        space = manager.address_space(1)
        mmu = MMU(TLBConfig(), use_filter_tlb=True)
        physical, _ = mmu.translate_address(space, 0x9000, speculative=True)
        assert mmu.stats.get("walker.walks") == 1
        assert mmu.tlb.probe(1, 0x9000) is None
        assert mmu.filter_tlb.probe(1, 0x9000) is not None
        # Re-translating speculatively now hits the filter TLB.
        again, latency = mmu.translate_address(space, 0x9000,
                                               speculative=True)
        assert again == physical
        assert latency == mmu.config.hit_latency
        assert mmu.stats.get("walker.walks") == 1

    def test_commit_translation_promotes_or_rewalks(self):
        manager = PageTableManager()
        space = manager.address_space(1)
        mmu = MMU(TLBConfig(), use_filter_tlb=True)
        mmu.translate_address(space, 0x9000, speculative=True)
        mmu.commit_translation(space, 0x9000)
        assert mmu.tlb.probe(1, 0x9000) is not None
        assert mmu.filter_tlb.promotions == 1
        # Committing a translation whose filter entry is gone re-walks.
        mmu.context_switch()
        mmu.commit_translation(space, 0xA000)
        assert mmu.tlb.probe(1, 0xA000) is not None
        assert mmu.filter_tlb.promotions == 1

    def test_context_switch_flushes_filter_tlb(self):
        manager = PageTableManager()
        space = manager.address_space(1)
        mmu = MMU(TLBConfig(), use_filter_tlb=True)
        mmu.translate_address(space, 0x9000, speculative=True)
        mmu.context_switch()
        assert mmu.filter_tlb.probe(1, 0x9000) is None


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

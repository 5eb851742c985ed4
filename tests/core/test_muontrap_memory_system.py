"""Integration-level tests for the MuonTrap memory system's guarantees."""

import pytest

from repro.common.params import (
    ProtectionConfig,
    SystemConfig,
    TLBConfig,
)
from repro.core.domains import DomainKind, DomainTracker
from repro.core.muontrap import MuonTrapMemorySystem


def build(num_cores=1, protection=None):
    config = SystemConfig(mode="muontrap", num_cores=num_cores,
                          protection=protection or ProtectionConfig.full())
    return MuonTrapMemorySystem(config)


class TestSpeculativeIsolation:
    def test_speculative_load_fills_only_filter_cache(self):
        memory = build()
        result = memory.load(0, 0, 0x1_0000, 100, speculative=True)
        assert result.served
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.data_filter(0).contains_physical(physical)
        assert not memory.hierarchy.l1d(0).contains(physical)
        assert not memory.hierarchy.l2.contains(physical)

    def test_commit_writes_line_through_to_l1(self):
        memory = build()
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        memory.commit_load(0, 0, 0x1_0000, 400)
        physical = memory.page_tables.address_space(0).translate(0x1_0000)
        assert memory.hierarchy.l1d(0).contains(physical)
        line = memory.data_filter(0).probe_physical(physical)
        assert line is not None and line.committed

    def test_second_speculative_access_hits_filter_cache(self):
        memory = build()
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        repeat = memory.load(0, 0, 0x1_0008, 300, speculative=True)
        assert repeat.hit_level == "l0"
        assert repeat.latency <= 2

    @pytest.mark.parametrize("event, args", [
        ("switch_to_process", (0, 1)),
        ("context_switch", (0, 200)),
        ("sandbox_entry", (0, 200)),
    ], ids=["switch_to_process", "context_switch", "sandbox_entry"])
    def test_context_switch_clears_filter_caches(self, event, args):
        """Each domain-crossing event flushes the filter caches and the
        filter TLBs by itself, after the domain tracker has switched."""
        memory = build()
        memory.load(0, 0, 0x1_0000, 100, speculative=True)
        memory.fetch(0, 0, 0x40_0000, 100, speculative=True)
        core = memory.core_state(0)
        assert memory.data_filter(0).occupancy() > 0
        assert memory.inst_filter(0).occupancy() > 0
        assert core.data_mmu.filter_occupancy() > 0
        domain_before = core.domains.current
        getattr(memory, event)(*args)
        assert core.domains.current != domain_before
        assert memory.data_filter(0).occupancy() == 0
        assert memory.inst_filter(0).occupancy() == 0
        assert core.data_mmu.filter_occupancy() == 0
        assert core.inst_mmu.filter_occupancy() == 0

    def test_squash_clears_only_with_clear_on_misspeculate(self):
        keep = build()
        keep.load(0, 0, 0x1_0000, 100, speculative=True)
        keep.squash(0, 200)
        assert keep.data_filter(0).occupancy() == 1

        protection = ProtectionConfig(clear_on_misspeculate=True)
        clear = build(protection=protection)
        clear.load(0, 0, 0x1_0000, 100, speculative=True)
        clear.squash(0, 200)
        assert clear.data_filter(0).occupancy() == 0

    def test_speculative_fetch_fills_only_instruction_filter(self):
        memory = build()
        memory.fetch(0, 0, 0x40_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x40_0000)
        assert memory.inst_filter(0).contains_physical(physical)
        assert not memory.hierarchy.l1i(0).contains(physical)


class TestCoherenceProtection:
    def test_speculative_access_to_peer_private_line_is_nacked(self):
        memory = build(num_cores=2)
        # Core 0 commits a store, leaving the line Modified in its L1.
        memory.store_address_ready(0, 0, 0x2_0000, 100, speculative=False)
        memory.commit_store(0, 0, 0x2_0000, 120)
        result = memory.load(1, 0, 0x2_0000, 200, speculative=True)
        assert result.must_retry_nonspeculative
        # Once non-speculative, the access succeeds.
        retry = memory.load(1, 0, 0x2_0000, 400, speculative=False)
        assert retry.served

    def test_committed_store_broadcasts_filter_invalidation(self):
        memory = build(num_cores=2)
        # Core 1 speculatively loads the line into its filter cache.
        memory.load(1, 0, 0x3_0000, 100, speculative=True)
        physical = memory.page_tables.address_space(0).translate(0x3_0000)
        assert memory.data_filter(1).contains_physical(physical)
        # Core 0 commits a store to the same line: the broadcast must remove
        # the copy from core 1's filter cache (section 4.5).
        memory.store_address_ready(0, 0, 0x3_0000, 200, speculative=True)
        memory.commit_store(0, 0, 0x3_0000, 300)
        assert not memory.data_filter(1).contains_physical(physical)
        assert memory.store_filter_broadcasts >= 1

    def test_filter_invalidate_rate_between_zero_and_one(self):
        memory = build()
        for index in range(20):
            address = 0x5_0000 + index * 64
            memory.store_address_ready(0, 0, address, 100 + index,
                                       speculative=True)
            memory.commit_store(0, 0, address, 200 + index)
        assert 0.0 <= memory.filter_invalidate_rate() <= 1.0
        assert memory.committed_stores == 20


class TestCommitTimePrefetch:
    def test_speculative_loads_do_not_train_prefetcher(self):
        memory = build()
        for index in range(12):
            memory.load(0, 0, 0x8_0000 + index * 64, 100 + index * 10,
                        speculative=True)
        assert memory.hierarchy.l2_prefetcher.training_events == 0

    def test_committed_loads_do_train_prefetcher(self):
        memory = build()
        hierarchy = memory.hierarchy
        for index in range(12):
            address = 0x8_0000 + index * 64
            memory.load(0, 0, address, 100 + index * 10, speculative=True)
            memory.commit_load(0, 0, address, 500 + index * 10)
        assert hierarchy.l2_prefetcher.training_events > 0
        # Commit-time training delivers its prefetches into the L2: lines
        # ahead of the committed stream are resident, marked prefetched.
        assert hierarchy.stats.get("commit_prefetch.prefetches_generated") > 0
        last = memory.page_tables.address_space(0).translate(
            0x8_0000 + 11 * 64)
        ahead = [line for line in hierarchy.l2.resident_lines()
                 if line.prefetched and line.address > last]
        assert ahead


class TestCommitFetch:
    """``commit_fetch`` skips a repeat of its previous call's line, which
    must change exactly what the full path would."""

    A, B = 0x40_0000, 0x40_1000          # on pages P and Q

    def test_a_repeat_counts_another_promotion(self):
        memory = build()
        inst_filter = memory.inst_filter(0)
        inst_mmu = memory.core_state(0).inst_mmu
        memory.fetch(0, 0, self.A, 100, speculative=True)
        memory.commit_fetch(0, 0, self.A, 200)
        memory.commit_fetch(0, 0, self.A + 4, 201)
        assert inst_mmu.stats.get("filter_tlb.promotions") == 2
        assert inst_filter.stats.get("line_commits") == 1
        line = inst_filter.probe_physical(
            memory.page_tables.address_space(0).translate(self.A))
        assert line.last_use == 201

    @pytest.mark.parametrize("between", ["fetch", "context_switch"])
    def test_a_fetch_or_domain_switch_between_commits_clears_the_memo(
            self, between):
        """With a one-entry filter TLB, fetching B (page Q) evicts page P,
        and a domain switch flushes the filter TLB; either way the second
        commit of A finds no filter-TLB entry and promotes nothing."""
        memory = MuonTrapMemorySystem(SystemConfig(
            mode="muontrap", tlb=TLBConfig(filter_entries=1)))
        inst_mmu = memory.core_state(0).inst_mmu
        memory.fetch(0, 0, self.A, 100, speculative=True)
        memory.commit_fetch(0, 0, self.A, 200)
        assert inst_mmu.stats.get("filter_tlb.promotions") == 1
        if between == "fetch":
            memory.fetch(0, 0, self.B, 300, speculative=True)
        else:
            memory.context_switch(0, 300)
        assert inst_mmu.probe_filter(0, self.A) is None
        memory.commit_fetch(0, 0, self.A, 400)
        assert inst_mmu.stats.get("filter_tlb.promotions") == 1


class TestDomainTracker:
    def test_transitions_and_counters(self):
        tracker = DomainTracker(core_id=0)
        assert tracker.syscall().kind is DomainKind.KERNEL
        assert tracker.current.kind is DomainKind.KERNEL
        tracker.context_switch(to_process=5)
        tracker.sandbox_entry(sandbox_id=1)
        assert tracker.current.kind is DomainKind.SANDBOX
        tracker.sandbox_exit()
        assert tracker.context_switches == 1
        assert tracker.sandbox_entries == 2
        assert tracker.current.kind is DomainKind.USER_PROCESS
        assert tracker.current.process_id == 5

"""Tests for the speculative filter cache (the paper's core structure)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import FilterCacheConfig
from repro.core.filter_cache import SpeculativeFilterCache


def make_filter(size=2048, assoc=4):
    return SpeculativeFilterCache(FilterCacheConfig(size_bytes=size,
                                                    associativity=assoc))


class TestFillAndLookup:
    def test_virtual_hit_and_physical_probe(self):
        cache = make_filter()
        cache.fill(virtual_address=0x1000, physical_address=0x8000, now=1,
                   process_id=1)
        line = cache.lookup(0x1000, process_id=1)
        assert line is not None and line.address == 0x8000
        assert cache.contains_physical(0x8000)
        assert not cache.contains_physical(0x1000)
        assert cache.config.hit_latency == 1

    def test_miss_records_statistics(self):
        cache = make_filter()
        assert cache.lookup(0x4000) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_lines_start_uncommitted_when_speculative(self):
        cache = make_filter()
        line = cache.fill(0x1000, 0x8000, now=1, committed=False)
        assert not line.committed
        line = cache.fill(0x2000, 0x9000, now=1, committed=True)
        assert line.committed

    def test_physical_alias_is_removed(self):
        """Only one copy of a physical line may exist (section 4.4)."""
        cache = make_filter()
        cache.fill(0x1000, 0x8000, now=1)
        cache.fill(0x200000, 0x8000, now=2)  # same physical, other virtual
        resident = [line for line in cache.resident_lines()
                    if line.address == 0x8000]
        assert len(resident) == 1
        assert resident[0].virtual_tag == 0x200000

    def test_process_isolation_on_lookup(self):
        cache = make_filter()
        cache.fill(0x1000, 0x8000, now=1, process_id=1)
        assert cache.lookup(0x1000, process_id=2) is None
        assert cache.lookup(0x1000, process_id=1) is not None


class TestCommit:
    def test_mark_committed_sets_bit(self):
        cache = make_filter()
        cache.fill(0x1000, 0x8000, now=1, committed=False, se_upgrade=True,
                   fill_level="l2")
        line = cache.mark_committed(0x1000, now=5)
        assert line is not None and line.committed
        assert line.se_upgrade_pending
        assert line.fill_level == "l2"

    def test_mark_committed_after_eviction_returns_none(self):
        cache = make_filter(size=128, assoc=1)  # 2 lines only
        cache.fill(0x1000, 0x8000, now=1)
        cache.fill(0x1000 + 128, 0x8000 + 128, now=2)
        cache.fill(0x1000 + 256, 0x8000 + 256, now=3)  # evicts the first
        assert cache.mark_committed(0x1000) is None
        assert cache.uncommitted_evictions >= 1


class TestInvalidation:
    def test_flush_clears_everything_in_one_call(self):
        cache = make_filter()
        for index in range(16):
            cache.fill(0x1000 + index * 64, 0x8000 + index * 64, now=index)
        dropped = cache.flush()
        assert dropped == 16
        assert cache.occupancy() == 0
        assert cache.flushes == 1

    def test_snoop_invalidation_by_physical_address(self):
        cache = make_filter()
        cache.fill(0x1000, 0x8000, now=1)
        assert cache.invalidate_physical(0x8000)
        assert not cache.invalidate_physical(0x8000)
        assert cache.occupancy() == 0

    def test_flush_then_refill_works(self):
        cache = make_filter()
        cache.fill(0x1000, 0x8000, now=1)
        cache.flush()
        cache.fill(0x1000, 0x8000, now=2)
        assert cache.lookup(0x1000) is not None


class TestCapacity:
    def test_respects_associativity(self):
        cache = make_filter(size=512, assoc=2)  # 8 lines, 4 sets
        set_stride = cache.num_sets * 64
        for way in range(4):
            cache.fill(way * set_stride, 0x10000 + way * set_stride, now=way)
        # Only two of the four conflicting lines can be resident.
        resident = sum(1 for way in range(4)
                       if cache.contains_virtual(way * set_stride))
        assert resident == 2

    def test_evictions_counted(self):
        cache = make_filter(size=128, assoc=1)
        cache.fill(0x0, 0x8000, now=1)
        cache.fill(0x80, 0x8080, now=2)
        cache.fill(0x100, 0x8100, now=3)
        assert cache.stats.get("evictions") >= 1


@settings(max_examples=25, deadline=None)
@given(fills=st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 18),
              st.integers(min_value=0, max_value=1 << 18)),
    min_size=1, max_size=120))
def test_filter_cache_capacity_invariant(fills):
    """Property: occupancy never exceeds the configured number of lines,
    and every physical line appears at most once."""
    cache = make_filter()
    for now, (virtual, physical) in enumerate(fills):
        cache.fill(virtual, physical, now=now)
        assert cache.occupancy() <= cache.config.num_lines
        physical_lines = [line.address for line in cache.resident_lines()]
        assert len(physical_lines) == len(set(physical_lines))
        resident = cache.resident_lines()
        assert cache.occupancy() == len(resident)
        assert all(cache.probe_physical(line.address) is line
                   for line in resident)


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=1 << 14),
              st.integers(min_value=0, max_value=1 << 14)),
    min_size=1, max_size=120))
def test_only_resident_lines_are_found(steps):
    """Property: occupancy counts exactly the resident lines,
    probe_physical finds every one of them, and an invalidated line is
    gone."""
    cache = make_filter(size=512, assoc=2)
    for now, (invalidate, virtual, physical) in enumerate(steps):
        resident = cache.resident_lines()
        if invalidate and resident:
            line = resident[virtual % len(resident)]
            assert cache.invalidate_physical(line.address)
            assert cache.probe_physical(line.address) is None
            assert line not in cache.resident_lines()
        else:
            cache.fill(virtual, physical, now=now)
        resident = cache.resident_lines()
        assert cache.occupancy() == len(resident)
        assert all(cache.probe_physical(line.address) is line
                   for line in resident)


@settings(max_examples=25, deadline=None)
@given(fills=st.lists(st.integers(min_value=0, max_value=1 << 18),
                      min_size=1, max_size=60))
def test_flush_always_empties(fills):
    cache = make_filter(size=256, assoc=4)
    for now, address in enumerate(fills):
        cache.fill(address, address + 0x100000, now=now)
    cache.flush()
    assert cache.occupancy() == 0

"""Tests for the set-associative cache, replacement policies and MSHRs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.base_cache import SetAssociativeCache
from repro.caches.cache_line import CacheLine
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import (
    LRUReplacement,
    RandomReplacement,
    TreePLRUReplacement,
    make_replacement_policy,
)
from repro.coherence.states import E, I, M, S
from repro.common.params import REPLACEMENT_POLICIES, CacheConfig
from repro.common.rng import DeterministicRng
from repro.telemetry import Tracer


def small_cache(size=1024, assoc=2, line=64, name="l1"):
    return SetAssociativeCache(CacheConfig(name=name, size_bytes=size,
                                           associativity=assoc,
                                           line_size=line, hit_latency=2))


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0x1000, now=0) == (2, None)
        cache.fill(0x1000, S, now=1)
        latency, line = cache.access(0x1040 - 0x40, now=2)
        assert latency == 2 and line is not None and line.state is S
        assert cache.contains(0x1010)  # same line, different offset
        assert (cache.hits, cache.misses) == (1, 1)

    def test_fill_existing_upgrades_state(self):
        cache = small_cache()
        cache.fill(0x2000, S, now=1)
        cache.fill(0x2000, M, now=2, dirty=True)
        assert cache.state_of(0x2000) is M
        assert cache.occupancy() == 1

    def test_lru_eviction_within_set(self):
        cache = small_cache(size=256, assoc=2, line=64)  # 2 sets, 2 ways
        set_stride = cache.num_sets * 64
        a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
        cache.fill(a, S, now=1)
        cache.fill(b, M, now=2, dirty=True)
        cache.access(a, now=3)          # make b the LRU
        _, victim = cache.fill(c, S, now=4)
        # The victim is the evicted line itself, with its address and
        # dirty bit intact.
        assert victim is not None and victim.address == b
        assert victim.dirty and victim.state is M
        assert cache.contains(a) and cache.contains(c) and not cache.contains(b)

    def test_fill_takes_the_first_empty_way_before_evicting(self):
        cache = small_cache(size=256, assoc=2, line=64)  # 2 sets, 2 ways
        set_stride = cache.num_sets * 64
        cache.fill(0x0, S, now=1)
        cache.fill(set_stride, S, now=2)
        assert cache.invalidate(0x0)
        line, victim = cache.fill(2 * set_stride, S, now=3)
        assert victim is None and line.way == 0
        assert cache.contains(set_stride)

    def test_dirty_eviction_invokes_writeback(self):
        cache = small_cache(size=128, assoc=1, line=64)
        written_back = []
        cache.fill(0x0, M, now=1, dirty=True)
        cache.fill(0x80, S, now=2,
                   writeback_handler=lambda line: written_back.append(
                       line.address))
        assert written_back == [0x0]

    def test_invalidate_and_flush(self):
        cache = small_cache()
        cache.fill(0x1000, E, now=1)
        cache.fill(0x2000, S, now=1)
        assert cache.invalidate(0x1000)
        assert not cache.invalidate(0x9999_0000)
        assert cache.flush_all() == 1
        assert cache.occupancy() == 0

    def test_downgrade(self):
        cache = small_cache()
        cache.fill(0x1000, M, now=1, dirty=True)
        assert cache.downgrade(0x1000, S) is M
        assert cache.state_of(0x1000) is S
        assert cache.downgrade(0x5000) is None

    def test_probe_does_not_update_lru(self):
        cache = small_cache(size=128, assoc=2, line=64)
        cache.fill(0x0, S, now=1)
        cache.fill(0x80, S, now=2)
        cache.probe(0x0)                 # must NOT refresh line 0x0
        _, victim = cache.fill(0x100, S, now=3)
        assert victim.address == 0x0


class TestAccessRule:
    """``access`` is each level's one hit rule, and ``merge`` its MSHR
    merge."""

    def test_write_to_a_shared_line_is_a_miss_that_still_restamps_it(self):
        cache = small_cache(size=256, assoc=2, line=64)  # 2 sets, 2 ways
        set_stride = cache.num_sets * 64
        a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
        cache.fill(a, S, now=1)
        cache.fill(b, S, now=2)
        assert cache.access(a, now=3, write=True) == (2, None)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.state_of(a) is S and not cache.probe(a).dirty
        _, victim = cache.fill(c, S, now=4)
        assert victim.address == b          # a was re-stamped at 3

    def test_write_hit_on_an_exclusive_line_leaves_it_modified_and_dirty(
            self):
        cache = small_cache()
        cache.fill(0x1000, E, now=1)
        latency, line = cache.access(0x1000, now=2, write=True)
        assert latency == 2 and line is cache.probe(0x1000)
        assert line.state is M and line.dirty
        assert (cache.hits, cache.misses) == (1, 0)

    def test_commit_access_counts_nothing_adds_no_wait_and_keeps_prefetched(
            self):
        cache = small_cache()
        cache.fill(0x1000, E, now=0, prefetched=True, ready_at=100)
        latency, line = cache.access(0x1000, now=10, write=True, commit=True)
        assert latency == 2 and line.state is M and line.dirty
        assert line.prefetched
        cache.fill(0x2000, S, now=0)
        assert cache.access(0x2000, now=10, write=True, commit=True) == (
            2, None)
        assert cache.access(0x3000, now=10, commit=True) == (2, None)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_in_flight_prefetched_hit_pays_the_remaining_wait_once(self):
        cache = small_cache()
        cache.fill(0x1000, E, now=0, prefetched=True, ready_at=100)
        latency, line = cache.access(0x1000, now=40)
        assert latency == 2 + 60 and not line.prefetched
        assert cache.access(0x1000, now=50) == (2, line)
        # A prefetched line that has arrived pays nothing.
        cache.fill(0x2000, E, now=0, prefetched=True, ready_at=30)
        latency, arrived = cache.access(0x2000, now=40)
        assert latency == 2 and arrived.prefetched
        assert cache.hits == 3

    def test_merge_joins_an_in_flight_miss(self):
        cache = small_cache()
        assert cache.merge(0x1000, now=0) is None
        cache.mshrs.allocate(0x1000, now=0, fill_latency=50)
        assert cache.merge(0x1000, now=10) == 2 + (50 - 10)
        assert cache.merge(0x1000, now=49) == 2 + 1
        assert cache.merge(0x1000, now=50) is None    # retired at 50
        assert (cache.hits, cache.misses) == (0, 0)

    def test_traced_access_emits_one_event_per_counted_access(self):
        cache = small_cache()
        tracer = Tracer()
        cache.attach_tracer(tracer, "l1d", core=0)
        cache.fill(0x1000, E, now=0)
        cache.access(0x1000, now=1)
        cache.access(0x2000, now=2)
        cache.access(0x1000, now=3, write=True, commit=True)
        assert tracer.counts() == {("cache", "fill"): 1,
                                   ("cache", "hit"): 1,
                                   ("cache", "miss"): 1}


class TestReplacementPolicies:
    def test_factory(self):
        rng = DeterministicRng(0)
        assert isinstance(make_replacement_policy("lru", 4, rng),
                          LRUReplacement)
        assert isinstance(make_replacement_policy("random", 4, rng),
                          RandomReplacement)
        assert isinstance(make_replacement_policy("plru", 4, rng),
                          TreePLRUReplacement)
        with pytest.raises(ValueError):
            make_replacement_policy("fifo", 4, rng)

    @pytest.mark.parametrize("name", sorted(REPLACEMENT_POLICIES))
    def test_every_accepted_name_builds_its_policy(self, name):
        # CacheConfig and the factory share one name list, case ignored.
        config = CacheConfig(name="l2", size_bytes=1024, associativity=2,
                             replacement=name.upper())
        policy = make_replacement_policy(config.replacement, 2,
                                         DeterministicRng(0))
        expected = {"lru": LRUReplacement, "random": RandomReplacement,
                    "plru": TreePLRUReplacement}[REPLACEMENT_POLICIES[name]]
        assert isinstance(policy, expected)

    @pytest.mark.parametrize("field, name, message", [
        ("replacement", "fifo", "replacement policy"),
        ("replacement", 7, "replacement policy"),
        # Only "stride" builds the L2 prefetcher: any other spelling would
        # silently run with none.
        ("prefetcher", "stream", "prefetcher"),
        ("prefetcher", "STRIDE", "prefetcher"),
    ])
    def test_config_rejects_an_unknown_name(self, field, name, message):
        with pytest.raises(ValueError, match=message):
            CacheConfig(name="l2", size_bytes=1024, associativity=2,
                        **{field: name})

    def test_lru_picks_oldest(self):
        policy = LRUReplacement()
        lines = [CacheLine(address=i, state=S, last_use=use)
                 for i, use in enumerate([5, 2, 9, 7])]
        assert policy.victim(0, lines) == 1

    def test_plru_victim_avoids_most_recent(self):
        policy = TreePLRUReplacement(4)
        lines = [CacheLine(address=i, state=S) for i in range(4)]
        policy.on_access(0, 2, now=1)
        assert policy.victim(0, lines) != 2

    def test_random_in_range(self):
        policy = RandomReplacement(DeterministicRng(1))
        lines = [CacheLine(address=i, state=S) for i in range(8)]
        assert all(0 <= policy.victim(0, lines) < 8 for _ in range(20))


class TestMSHRs:
    def test_merge_same_line(self):
        mshrs = MSHRFile(2)
        first = mshrs.allocate(0x100, now=0, fill_latency=50)
        second = mshrs.allocate(0x100, now=10, fill_latency=50)
        # The merge joins the outstanding entry: one fill, ready at 50.
        assert first == second == 50
        assert mshrs.occupancy(10) == 1
        assert mshrs.merges == 1

    def test_full_file_delays_issue(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0x100, now=0, fill_latency=100)
        ready_time = mshrs.allocate(0x200, now=10, fill_latency=100)
        # Issued no earlier than the first entry's retirement at 100.
        assert ready_time - 100 >= 100
        assert mshrs.full_stalls == 1

    def test_entries_expire(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x100, now=0, fill_latency=10)
        assert mshrs.lookup(0x100, now=5) is not None
        assert mshrs.lookup(0x100, now=20) is None
        assert mshrs.occupancy(20) == 0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


@settings(max_examples=30, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=200))
def test_cache_occupancy_never_exceeds_capacity(addresses):
    """Property: a cache never holds more lines than its geometry allows."""
    cache = small_cache(size=512, assoc=2, line=64)
    for now, address in enumerate(addresses):
        cache.fill(address, S, now=now)
        assert cache.occupancy() <= cache.config.num_lines
        assert cache.contains(address)
        resident = cache.resident_lines()
        assert cache.occupancy() == len(resident)
        assert all(cache.probe(line.address) is line for line in resident)


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(),
                                st.integers(min_value=0, max_value=1 << 12)),
                      min_size=1, max_size=200))
def test_only_resident_lines_are_found(steps):
    """Property: occupancy counts exactly the resident lines, probe finds
    every one of them, and an invalidated line is gone."""
    cache = small_cache(size=512, assoc=2, line=64)
    for now, (invalidate, address) in enumerate(steps):
        resident = cache.resident_lines()
        if invalidate and resident:
            line = resident[address % len(resident)]
            assert cache.invalidate(line.address)
            assert cache.probe(line.address) is None
            assert line not in cache.resident_lines()
        else:
            cache.fill(address, S, now=now)
        resident = cache.resident_lines()
        assert cache.occupancy() == len(resident)
        assert all(cache.probe(line.address) is line for line in resident)


@settings(max_examples=30, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          min_size=1, max_size=100))
def test_flush_leaves_cache_empty(addresses):
    cache = small_cache(size=1024, assoc=4, line=64)
    for now, address in enumerate(addresses):
        cache.fill(address, E, now=now)
    cache.flush_all()
    assert cache.occupancy() == 0
    assert all(not cache.contains(address) for address in addresses)

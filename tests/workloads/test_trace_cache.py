"""Tests for the per-process trace cache, ``cached_workload``.

Every non-mix workload comes from one ``functools.lru_cache`` of
``MEMORY_ENTRIES`` entries keyed by ``(profile, instructions, seed,
process_id)``; each test starts and ends with it empty.
"""

import dataclasses
import sys
import threading

import pytest

from repro.workloads.generator import (
    MEMORY_ENTRIES,
    TraceGenerator,
    cached_workload,
    generate_workload,
)
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 200


@pytest.fixture(autouse=True)
def _empty_trace_cache():
    cached_workload.cache_clear()
    yield
    cached_workload.cache_clear()


def columns(workload) -> list:
    """Every thread's identity and op stream, for content comparison."""
    return [(trace.benchmark, trace.thread_id, trace.process_id, trace.ops)
            for trace in workload]


class TestCachedWorkload:
    def test_repeated_call_returns_the_same_object(self):
        first = generate_workload(get_profile("mcf"), INSTRUCTIONS, seed=4)
        second = generate_workload(get_profile("mcf"), INSTRUCTIONS, seed=4)
        assert second is first
        info = cached_workload.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("changed", [
        {"instructions": INSTRUCTIONS + 1},
        {"seed": 5},
        {"process_id": 1},
        {"profile": get_profile("lbm")},
    ], ids=["instructions", "seed", "process_id", "profile"])
    def test_every_key_component_gives_a_different_workload(self, changed):
        base = {"profile": get_profile("mcf"),
                "instructions": INSTRUCTIONS, "seed": 4, "process_id": 0}
        first = generate_workload(**base)
        second = generate_workload(**{**base, **changed})
        assert second is not first
        assert columns(second) != columns(first)
        assert cached_workload.cache_info().currsize == 2

    @pytest.mark.parametrize("name, seed, process_id", [
        ("mcf", 1234, 0),
        ("canneal", 7, 0),
        ("lbm", 3, 2),
    ])
    def test_cached_content_equals_fresh_generation(self, name, seed,
                                                    process_id):
        profile = get_profile(name)
        cached = generate_workload(profile, INSTRUCTIONS, seed=seed,
                                   process_id=process_id)
        fresh = TraceGenerator(profile, seed=seed).generate(
            INSTRUCTIONS, process_id=process_id)
        assert (cached.benchmark, cached.suite) == (fresh.benchmark,
                                                    fresh.suite)
        assert columns(cached) == columns(fresh)

    def test_the_oldest_of_one_workload_too_many_is_regenerated(self):
        mcf = get_profile("mcf")
        workloads = [generate_workload(mcf, INSTRUCTIONS, seed=seed)
                     for seed in range(MEMORY_ENTRIES + 1)]
        assert generate_workload(mcf, INSTRUCTIONS,
                                 seed=MEMORY_ENTRIES) is workloads[-1]
        oldest = generate_workload(mcf, INSTRUCTIONS, seed=0)
        assert oldest is not workloads[0]
        assert columns(oldest) == columns(workloads[0])
        info = cached_workload.cache_info()
        assert (info.hits, info.misses) == (1, MEMORY_ENTRIES + 2)
        assert info.currsize == info.maxsize == MEMORY_ENTRIES

    def test_a_hit_keeps_a_workload_from_eviction(self):
        """Least recently used, not first in: a looked-up workload stays."""
        mcf = get_profile("mcf")
        oldest = generate_workload(mcf, INSTRUCTIONS, seed=0)
        second = generate_workload(mcf, INSTRUCTIONS, seed=1)
        for seed in range(2, MEMORY_ENTRIES):
            generate_workload(mcf, INSTRUCTIONS, seed=seed)
        assert generate_workload(mcf, INSTRUCTIONS, seed=0) is oldest
        generate_workload(mcf, INSTRUCTIONS, seed=MEMORY_ENTRIES)
        assert generate_workload(mcf, INSTRUCTIONS, seed=0) is oldest
        assert generate_workload(mcf, INSTRUCTIONS, seed=1) is not second

    def test_keyword_and_positional_calls_share_one_entry(self):
        mcf = get_profile("mcf")
        first = generate_workload(mcf, INSTRUCTIONS)
        assert generate_workload(mcf, INSTRUCTIONS, 0, 0) is first
        assert generate_workload(profile=mcf, instructions=INSTRUCTIONS,
                                 seed=0, process_id=0) is first
        assert cached_workload.cache_info().currsize == 1

    def test_the_key_holds_the_profile_by_value(self):
        mcf = get_profile("mcf")
        first = generate_workload(mcf, INSTRUCTIONS, seed=4)
        rebuilt = dataclasses.replace(mcf)
        assert rebuilt is not mcf
        assert generate_workload(rebuilt, INSTRUCTIONS, seed=4) is first
        wider = dataclasses.replace(
            mcf, working_set_bytes=mcf.working_set_bytes * 2)
        assert generate_workload(wider, INSTRUCTIONS, seed=4) is not first

    def test_mixes_are_composed_afresh_from_cached_constituents(self):
        mix = get_mix("mix-pointer-stream")
        first = generate_workload(mix, INSTRUCTIONS, seed=9)
        second = generate_workload(mix, INSTRUCTIONS, seed=9)
        assert second is not first
        assert all(a.packed() is b.packed()
                   for a, b in zip(first.traces, second.traces))
        # One entry per constituent (mcf and lbm), none for the bundle.
        info = cached_workload.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)

    def test_cache_clear_forces_fresh_generation(self):
        mcf = get_profile("mcf")
        first = generate_workload(mcf, INSTRUCTIONS, seed=4)
        cached_workload.cache_clear()
        assert cached_workload.cache_info().currsize == 0
        again = generate_workload(mcf, INSTRUCTIONS, seed=4)
        assert again is not first
        assert columns(again) == columns(first)


#: Sized so that the hand-written ``OrderedDict`` LRU this cache replaced,
#: which read, moved and evicted entries in separate unlocked steps, raised
#: ``KeyError`` in every run of this test.
THREADS = 8
CALLS_PER_THREAD = 10_000
DISTINCT_WORKLOADS = MEMORY_ENTRIES + 4


def test_concurrent_lookups_share_one_cache_safely(monkeypatch):
    """Threads of one process (the service's request threads) share the
    cache: every lookup returns its own key's workload and none raises,
    even with a thread switch forced after almost every bytecode."""
    def generate(self, instructions, process_id=0):
        return (self.profile.name, instructions, self.seed, process_id)

    monkeypatch.setattr(TraceGenerator, "generate", generate)
    mcf = get_profile("mcf")
    failures = []

    def look_up(offset):
        try:
            for call in range(CALLS_PER_THREAD):
                seed = (call + offset) % DISTINCT_WORKLOADS
                workload = generate_workload(mcf, INSTRUCTIONS, seed=seed)
                if workload != ("mcf", INSTRUCTIONS, seed, 0):
                    failures.append(workload)
                    return
        except Exception as error:   # noqa: BLE001 - reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look_up, args=(offset,))
                   for offset in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []

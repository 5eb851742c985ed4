"""Tests for the prefetchers.

Commit-time training reaching the L2 is covered by
``tests/core/test_muontrap_memory_system.py::TestCommitTimePrefetch``.
"""

from repro.prefetch.base import NullPrefetcher, TrainingEvent
from repro.prefetch.stream import StreamPrefetcher


def event(address, cycle=0):
    return TrainingEvent(address=address, cycle=cycle)


class TestStreamPrefetcher:
    def test_sequential_lines_of_one_region_form_a_stream(self):
        prefetcher = StreamPrefetcher(degree=2, distance=2)
        issued = []
        for index in range(8):
            issued = prefetcher.train(event(0x40_0000 + index * 64,
                                            cycle=index))
        assert issued
        assert all(line > 0x40_0000 + 7 * 64 for line in issued)

    def test_disruption_reduces_confidence(self):
        prefetcher = StreamPrefetcher(degree=1, distance=1)
        for index in range(6):
            prefetcher.train(event(0x40_0000 + index * 64))
        before = prefetcher.disruptions
        prefetcher.train(event(0x40_0000 + 640))   # breaks the stride
        assert prefetcher.disruptions == before + 1

    def test_streams_in_different_regions_are_independent(self):
        prefetcher = StreamPrefetcher(degree=1, distance=1)
        for index in range(6):
            prefetcher.train(event(0x10_0000 + index * 64))
            prefetcher.train(event(0x20_0000 + index * 128))
        assert prefetcher.entry_for_address(0x10_0000).stride == 64
        assert prefetcher.entry_for_address(0x20_0000).stride == 128


class TestNullPrefetcher:
    def test_null_prefetcher_is_silent(self):
        prefetcher = NullPrefetcher()
        assert prefetcher.train(event(0x1000)) == []
        assert prefetcher.prefetches_issued == 0


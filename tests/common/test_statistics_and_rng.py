"""Tests for the statistics tree and the deterministic RNG."""

import random

from hypothesis import given, strategies as st

import pytest

from repro.caches.hierarchy import _DRAW_BITS, _DRAW_N, _REORDER_DRAW
from repro.common.rng import DeterministicRng
from repro.common.statistics import (
    Counter,
    Histogram,
    StatGroup,
    geometric_mean,
    ratio,
)


class TestCountersAndHistograms:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_counter_batched_add(self):
        counter = Counter("c")
        counter.add(10)
        counter.add(32)
        assert counter.value == 42

    def test_histogram_mean(self):
        histogram = Histogram("h")
        histogram.sample(10)
        histogram.sample(20, weight=3)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(17.5)
        assert histogram.buckets() == {10: 1, 20: 3}

    def test_histogram_buckets_view_is_read_only_and_live(self):
        histogram = Histogram("h")
        histogram.sample(10)
        view = histogram.buckets()
        with pytest.raises(TypeError):
            view[10] = 99
        # The view is live: later samples show through without re-fetching.
        histogram.sample(10)
        histogram.sample(20)
        assert view == {10: 2, 20: 1}
        # Reading a missing key must not materialise a bucket.
        assert view.get(999) is None
        assert 999 not in histogram.buckets()

    def test_histogram_percentile_nearest_rank(self):
        histogram = Histogram("h")
        for value in (15, 20, 35, 40, 50):
            histogram.sample(value)
        # Canonical nearest-rank worked example.
        assert histogram.percentile(5) == 15.0
        assert histogram.percentile(30) == 20.0
        assert histogram.percentile(40) == 20.0
        assert histogram.percentile(50) == 35.0
        assert histogram.percentile(100) == 50.0
        assert histogram.percentile(0) == 15.0

    def test_histogram_percentile_respects_weights(self):
        histogram = Histogram("h")
        histogram.sample(1, weight=99)
        histogram.sample(1000)
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(99) == 1.0
        assert histogram.percentile(100) == 1000.0

    def test_histogram_percentile_edge_cases(self):
        histogram = Histogram("h")
        # An empty histogram has no percentiles: a silent 0.0 here once
        # masqueraded as a measured zero-latency tail in summaries.
        with pytest.raises(ValueError, match="empty"):
            histogram.percentile(50)
        with pytest.raises(ValueError):
            histogram.percentile(-1)
        with pytest.raises(ValueError):
            histogram.percentile(100.5)
        # The out-of-range check wins even on an empty histogram, and one
        # sample makes every percentile well-defined again.
        histogram.sample(3)
        assert histogram.percentile(0) == 3.0
        assert histogram.percentile(100) == 3.0

    @given(st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=60))
    def test_histogram_percentile_matches_sorted_samples(self, values):
        import math
        histogram = Histogram("h")
        for value in values:
            histogram.sample(value)
        ordered = sorted(values)
        for p in (1, 25, 50, 75, 90, 99, 100):
            rank = max(1, math.ceil(len(ordered) * p / 100))
            assert histogram.percentile(p) == float(ordered[rank - 1])

    def test_histogram_stddev(self):
        import statistics as stdlib_statistics
        histogram = Histogram("h")
        # No samples -> undefined, a hard error; one sample -> a genuine
        # (and genuinely zero) deviation.  The distinction matters: 0.0
        # on empty read as "perfectly tight distribution".
        with pytest.raises(ValueError, match="empty"):
            histogram.stddev()
        histogram.sample(4)
        assert histogram.stddev() == 0.0              # single sample
        histogram.sample(8, weight=2)
        histogram.sample(2)
        expected = stdlib_statistics.pstdev([4, 8, 8, 2])
        assert histogram.stddev() == pytest.approx(expected)


class TestStatGroup:
    def test_nested_access_by_path(self):
        root = StatGroup("system")
        root.child("l1d").counter("hits").increment(7)
        assert root.get("l1d.hits") == 7
        assert root.get_or_zero("l1d.misses") == 0
        with pytest.raises(KeyError):
            root.get("l1d.nonexistent")

    def test_walk_and_reset(self):
        root = StatGroup("root")
        root.counter("a").increment(1)
        root.child("x").counter("b").increment(2)
        flattened = root.as_dict()
        assert flattened["root.a"] == 1
        assert flattened["root.x.b"] == 2
        root.reset()
        assert root.get("a") == 0

    def test_report_is_printable(self):
        root = StatGroup("root")
        root.counter("a", "description").increment(3)
        assert "a" in root.report()


class TestAggregates:
    def test_ratio(self):
        assert ratio(1, 2) == 0.5
        assert ratio(1, 0, default=7.0) == 7.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.below(101) for _ in range(20)] == \
            [b.below(101) for _ in range(20)]

    def test_fork_streams_differ(self):
        root = DeterministicRng(7)
        assert [root.fork(1).below(10 ** 6 + 1) for _ in range(5)] != \
            [root.fork(2).below(10 ** 6 + 1) for _ in range(5)]

    def test_below_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).below(0)

    @given(n=st.integers(min_value=1, max_value=1000))
    def test_zipf_index_in_range(self, n):
        rng = DeterministicRng(5)
        assert all(0 <= rng.zipf_index(n) < n for _ in range(50))

    def test_weighted_respects_zero_weight(self):
        draw = DeterministicRng(1).weighted(["a", "b"], [1.0, 0.0])
        assert {draw() for _ in range(50)} == {"a"}

    @pytest.mark.parametrize("weights", [[1.0], [0.0, 0.0],
                                         [1.0, float("inf")]])
    def test_weighted_rejects_unusable_weights(self, weights):
        with pytest.raises(ValueError):
            DeterministicRng(1).weighted(["a", "b"], weights)

    @pytest.mark.parametrize("seed", [0, 999, 1234 * 1000003 + 999])
    def test_getrandbits_replays_choice(self, seed):
        """The rejection draw the L2 training window makes with the bound
        ``getrandbits`` consumes the sequence ``choice`` consumes."""
        chosen = DeterministicRng(seed)
        drawn = DeterministicRng(seed)
        getrandbits = drawn.getrandbits
        replayed = []
        for _ in range(500):
            slot = getrandbits(_DRAW_BITS)
            while slot >= _DRAW_N:
                slot = getrandbits(_DRAW_BITS)
            replayed.append(_REORDER_DRAW[slot])
        assert replayed == [chosen._random.choice(_REORDER_DRAW)
                            for _ in range(500)]
        assert drawn.below(10 ** 9) == chosen.below(10 ** 9)


#: Seeds of the replays: small, the generator's ``fork`` of seed 1234 for
#: thread 0, and the largest ``fork`` can give.
REPLAY_SEEDS = [0, 7, (1234 * 1000003 + 1) & 0xFFFFFFFF, 0xFFFFFFFF]


class TestDrawPrimitivesReplayRandom:
    """Each primitive a hot loop uses in place of a ``random.Random``
    method returns what that method returns on the same stream, and leaves
    the stream in the same state, so traces do not depend on which of the
    two drew them."""

    @staticmethod
    def _pair(seed):
        return DeterministicRng(seed), random.Random(seed)

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 4096,      # powers of two
                                   3, 6, 7, 9, 641, 3277, 10 ** 9 + 7])
    def test_below_replays_randint(self, seed, n):
        rng, reference = self._pair(seed)
        assert [rng.below(n) for _ in range(300)] == \
            [reference.randint(0, n - 1) for _ in range(300)]
        assert rng._random.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("items", [(5,), (8, 8, 16, 16, 32, 64),
                                       tuple(range(7)), tuple(range(33))])
    def test_below_replays_choice(self, seed, items):
        rng, reference = self._pair(seed)
        assert [items[rng.below(len(items))] for _ in range(300)] == \
            [reference.choice(items) for _ in range(300)]
        assert rng._random.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("weights", [
        # An op mix as ``_mix_weights`` gives it, with and without branches.
        [0.25, 0.10, 0.12, 0.05, 0.02, 0.0001, 0.4599],
        [0.25, 0.10, 0.0, 0.05, 0.02, 0.3, 0.28],
        [1.0, 0.0], [0.0, 1.0], [3, 0, 0, 1, 0]])
    def test_weighted_replays_choices(self, seed, weights):
        rng, reference = self._pair(seed)
        items = [f"kind{index}" for index in range(len(weights))]
        draw = rng.weighted(items, weights)
        picks = [draw() for _ in range(500)]
        assert picks == [reference.choices(items, weights)[0]
                         for _ in range(500)]
        assert rng._random.getstate() == reference.getstate()
        assert not {item for item, weight in zip(items, weights)
                    if weight == 0} & set(picks)

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    def test_bound_random_is_the_streams_own(self, seed):
        rng, reference = self._pair(seed)
        uniform = rng.random
        assert [uniform() for _ in range(50)] == \
            [reference.random() for _ in range(50)]
        assert rng._random.getstate() == reference.getstate()

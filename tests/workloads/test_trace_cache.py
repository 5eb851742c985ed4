"""Tests for the content-hash-keyed trace cache."""

import logging

import pytest

from repro.telemetry.log import configure
from repro.workloads.cache import (
    TRACE_CACHE_ENV,
    TraceCache,
    active_trace_cache,
    reset_trace_cache,
    trace_key,
)
from repro.workloads.generator import TraceGenerator, generate_workload
from repro.workloads.profiles import get_profile


@pytest.fixture(autouse=True)
def _fresh_cache_state(monkeypatch):
    """Isolate every test from the process-wide cache singleton."""
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    reset_trace_cache()
    yield
    reset_trace_cache()


class TestTraceKey:
    def test_key_depends_on_every_generation_input(self):
        mcf = get_profile("mcf")
        base = trace_key(mcf, 1000, 1, 0)
        assert trace_key(mcf, 1000, 1, 0) == base
        assert trace_key(mcf, 2000, 1, 0) != base
        assert trace_key(mcf, 1000, 2, 0) != base
        assert trace_key(mcf, 1000, 1, 3) != base
        assert trace_key(get_profile("lbm"), 1000, 1, 0) != base

    def test_key_of_a_fixed_workload_is_pinned(self):
        # Cached traces stay reachable only while keys are stable: a change
        # here silently regenerates every trace of every on-disk cache.
        assert (trace_key(get_profile("mcf"), 8000, 1234, 0)
                == "66a8e5b8fbec1f617af15d04")


class TestTraceCache:
    def test_memory_tier_round_trip(self):
        cache = TraceCache()
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(300)
        key = trace_key(get_profile("mcf"), 300, 2, 0)
        assert cache.get(key) is None
        cache.put(key, workload)
        assert cache.get(key) is workload
        assert cache.hits == 1 and cache.misses == 1

    def test_memory_tier_is_lru_bounded(self):
        cache = TraceCache(memory_entries=2)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("a", workload)
        cache.put("b", workload)
        cache.put("c", workload)
        assert cache.get("a") is None
        assert cache.get("b") is workload
        assert cache.get("c") is workload

    def test_disk_tier_round_trip(self, tmp_path):
        writer = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("lbm"), seed=9).generate(200)
        key = trace_key(get_profile("lbm"), 200, 9, 0)
        writer.put(key, workload)
        # A fresh cache (fresh process, conceptually) reads it back.
        reader = TraceCache(root=tmp_path)
        loaded = reader.get(key)
        assert loaded is not None
        assert loaded.benchmark == workload.benchmark
        assert [t.ops for t in loaded] == [t.ops for t in workload]
        # The packed view survives pickling too.
        assert loaded.thread(0).packed().unpack() == workload.thread(0).ops

    def test_disk_tier_evicts_corrupt_entries(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        (tmp_path / "deadbeef.pkl").write_bytes(b"not a pickle")
        assert cache.get("deadbeef") is None
        # Evicted, not skipped: the next put rewrites the entry cleanly
        # instead of failing to unpickle on every future run.
        assert not (tmp_path / "deadbeef.pkl").exists()

    def test_truncated_pickle_is_evicted(self, tmp_path):
        writer = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=3).generate(100)
        writer.put("torn", workload)
        path = tmp_path / "torn.pkl"
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        reader = TraceCache(root=tmp_path)
        assert reader.get("torn") is None
        assert not path.exists()

    def test_unusable_directory_keeps_the_memory_tier(self, tmp_path,
                                                      monkeypatch, caplog):
        configure()
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        (tmp_path / "file").write_text("a regular file, not a directory")
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "file" / "cache"))
        with caplog.at_level(logging.WARNING, logger="repro.workloads.cache"):
            first = generate_workload(get_profile("mcf"), 100, seed=2)
            second = generate_workload(get_profile("mcf"), 100, seed=2)
        assert second is first
        assert active_trace_cache().root is None
        assert [message.split()[0] for message in caplog.messages] == [
            "trace_cache_unavailable"]

    def test_clear_sweeps_stray_tmp_files(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("x", workload)
        (tmp_path / ".x.999.0.tmp").write_bytes(b"crashed mid-write")
        cache.clear()
        assert not list(tmp_path.iterdir())

    def test_clear_empties_both_tiers(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("x", workload)
        assert len(cache) == 1
        assert cache.clear() >= 1
        assert len(cache) == 0


class TestGenerateWorkloadCaching:
    def test_repeated_generation_returns_cached_workload(self):
        first = generate_workload(get_profile("mcf"), 300, seed=4)
        second = generate_workload(get_profile("mcf"), 300, seed=4)
        assert second is first

    def test_different_seed_is_a_different_workload(self):
        first = generate_workload(get_profile("mcf"), 300, seed=4)
        second = generate_workload(get_profile("mcf"), 300, seed=5)
        assert second is not first

    def test_env_off_disables_caching(self, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, "off")
        assert active_trace_cache() is None
        first = generate_workload(get_profile("mcf"), 300, seed=4)
        second = generate_workload(get_profile("mcf"), 300, seed=4)
        assert second is not first
        # Identical content either way — caching only changes identity.
        assert [t.ops for t in first] == [t.ops for t in second]

    def test_env_no_disables_caching_without_a_directory(
            self, monkeypatch, tmp_path):
        """An off spelling is never taken for a disk-tier directory name."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(TRACE_CACHE_ENV, "no")
        assert active_trace_cache() is None
        generate_workload(get_profile("mcf"), 300, seed=4)
        assert list(tmp_path.iterdir()) == []

    def test_env_directory_enables_disk_tier(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        generate_workload(get_profile("mcf"), 300, seed=4)
        assert list(tmp_path.glob("*.pkl"))

"""Tests for multi-programmed co-run mix composition."""

import pytest

from repro.harness.suites import resolve_suites
from repro.workloads.generator import cached_workload, generate_workload
from repro.workloads.mixes import (
    MIX_PROFILES,
    MixProfile,
    generate_mix,
    get_mix,
    mix_names,
)
from repro.workloads.profiles import get_profile


class TestMixProfiles:
    def test_builtin_mixes_are_well_formed(self):
        for name, mix in MIX_PROFILES.items():
            assert mix.name == name
            assert mix.suite == "mix"
            assert len(mix.members) >= 2
            assert mix.num_threads >= len(mix.members)

    def test_get_profile_resolves_mix_names(self):
        mix = get_profile("mix-pointer-stream")
        assert isinstance(mix, MixProfile)
        assert mix.members == ("mcf", "lbm")
        assert get_mix("mix-quad").num_threads == 4

    def test_unknown_constituent_rejected(self):
        with pytest.raises(ValueError):
            MixProfile(name="bad", members=("mcf", "not-a-benchmark"))

    def test_single_member_rejected(self):
        with pytest.raises(ValueError):
            MixProfile(name="solo", members=("mcf",))

    def test_suite_registry_exposes_mixes(self):
        assert resolve_suites(["mixes"]) == sorted(mix_names())
        assert resolve_suites(["mix-quad"]) == ["mix-quad"]


class TestMixGeneration:
    def test_constituents_get_distinct_processes_and_threads(self):
        workload = generate_mix(get_mix("mix-quad"), 300, seed=5)
        assert workload.benchmark == "mix-quad"
        assert workload.suite == "mix"
        assert [trace.benchmark for trace in workload] == [
            "mcf", "lbm", "omnetpp", "libquantum"]
        assert [trace.process_id for trace in workload] == [0, 1, 2, 3]
        assert [trace.thread_id for trace in workload] == [0, 1, 2, 3]
        for trace in workload:
            assert len(trace) == 300

    def test_constituent_traces_reuse_the_trace_cache(self):
        """Mix composition must not regenerate (or copy) member traces."""
        cached_workload.cache_clear()
        try:
            single = generate_workload(get_profile("mcf"), 250, seed=9)
            mix = generate_workload(get_mix("mix-pointer-stream"), 250,
                                    seed=9)
            # The mix's mcf trace shares the cached PackedTrace object by
            # reference — zero copying.
            assert mix.traces[0].packed() is single.traces[0].packed()
        finally:
            cached_workload.cache_clear()

    def test_generate_workload_dispatches_mixes(self):
        via_dispatch = generate_workload(get_profile("mix-pointer-stream"),
                                         200, seed=3)
        direct = generate_mix(get_mix("mix-pointer-stream"), 200, seed=3)
        assert [t.benchmark for t in via_dispatch] == [t.benchmark
                                                       for t in direct]
        assert [t.process_id for t in via_dispatch] == [t.process_id
                                                        for t in direct]
        assert all(a.ops == b.ops
                   for a, b in zip(via_dispatch.traces, direct.traces))

    def test_parsec_constituent_contributes_all_threads(self):
        mix = MixProfile(name="test-parsec-mix",
                         members=("streamcluster", "mcf"))
        assert mix.num_threads == 5
        workload = generate_mix(mix, 200, seed=1)
        assert [trace.process_id for trace in workload] == [0, 0, 0, 0, 1]
        assert workload.num_threads == 5

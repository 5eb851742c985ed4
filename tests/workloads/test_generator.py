"""Tests for the workload profiles and the synthetic trace generator."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.instructions import F_LOAD, OpKind
from repro.workloads.generator import TraceGenerator, generate_workload
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC2006_PROFILES,
    WorkloadProfile,
    get_profile,
    parsec_benchmarks,
    spec_benchmarks,
)


class TestProfiles:
    def test_all_figure_benchmarks_present(self):
        # The 26 SPEC workloads of Figures 3/7/9 and 7 Parsec of Figures 4-8.
        assert len(spec_benchmarks()) == 26
        assert len(parsec_benchmarks()) == 7
        for name in ["lbm", "mcf", "omnetpp", "povray", "zeusmp", "sphinx3"]:
            assert name in SPEC2006_PROFILES
        for name in ["blackscholes", "streamcluster", "freqmine"]:
            assert name in PARSEC_PROFILES

    def test_parsec_profiles_are_four_threaded(self):
        assert all(profile.num_threads == 4
                   for profile in PARSEC_PROFILES.values())
        assert all(profile.num_threads == 1
                   for profile in SPEC2006_PROFILES.values())

    def test_get_profile_raises_for_unknown(self):
        with pytest.raises(KeyError):
            get_profile("not-a-benchmark")

    def test_scaling_preserves_identity(self):
        profile = get_profile("mcf").scaled_for_sample(2000)
        assert profile.name == "mcf"
        assert profile.working_set_bytes < get_profile("mcf").working_set_bytes
        assert profile.working_set_bytes >= 8 * 1024

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", temporal_locality=1.5)


class TestGenerator:
    def test_trace_length_and_mix(self):
        profile = get_profile("hmmer")
        trace = TraceGenerator(profile, seed=1).generate_single(4000)
        assert len(trace) == 4000
        summary = trace.summary()
        assert abs(summary["load_fraction"] - profile.load_fraction) < 0.05
        assert abs(summary["store_fraction"] - profile.store_fraction) < 0.04
        assert abs(summary["branch_fraction"] - profile.branch_fraction) < 0.04

    def test_deterministic_for_same_seed(self):
        profile = get_profile("gcc")
        first = TraceGenerator(profile, seed=7).generate_single(500)
        second = TraceGenerator(profile, seed=7).generate_single(500)
        assert [(op.kind, op.pc, op.address) for op in first.ops] == \
            [(op.kind, op.pc, op.address) for op in second.ops]

    def test_different_seeds_differ(self):
        profile = get_profile("gcc")
        first = TraceGenerator(profile, seed=1).generate_single(500)
        second = TraceGenerator(profile, seed=2).generate_single(500)
        assert [(op.kind, op.address) for op in first.ops] != \
            [(op.kind, op.address) for op in second.ops]

    def test_multithreaded_workload_has_one_trace_per_thread(self):
        workload = generate_workload(get_profile("ferret"), 1000, seed=3)
        assert workload.num_threads == 4
        assert workload.total_instructions() == 4000
        bases = {op.address & ~0xFF_FFFF for trace in workload
                 for op in trace.ops
                 if op.kind is OpKind.LOAD and op.address < 0x7000_0000}
        assert len(bases) >= 2, "threads must use distinct private regions"

    def test_pcs_stay_within_instruction_footprint(self):
        profile = get_profile("povray").scaled_for_sample(2000)
        trace = TraceGenerator(get_profile("povray"), seed=5).generate_single(
            2000)
        code_base = 0x0040_0000
        for op in trace.ops:
            assert code_base <= op.pc < code_base + \
                profile.instruction_footprint_bytes + 4

    def test_branches_carry_wrong_path_accesses(self):
        trace = TraceGenerator(get_profile("gobmk"), seed=9).generate_single(
            3000)
        branches = [op for op in trace.ops if op.kind is OpKind.BRANCH]
        assert branches
        assert any(op.wrong_path for op in branches)

    @settings(max_examples=25, deadline=None)
    @given(mean=st.floats(min_value=1.0, max_value=20.0))
    def test_wrong_path_data_accesses_are_bounded_geometric(self, mean):
        """Every branch has one to six wrong-path data accesses, numbered
        from issue slot 1, and at most one instruction fetch; a mean of one
        gives exactly one."""
        profile = replace(get_profile("gobmk"), wrong_path_loads=mean)
        trace = TraceGenerator(profile, seed=3).generate_single(600)
        counts = []
        for op in trace.ops:
            if op.kind is not OpKind.BRANCH:
                assert not op.wrong_path
                continue
            data = [access for access in op.wrong_path
                    if not access.is_instruction]
            fetches = [access for access in op.wrong_path
                       if access.is_instruction]
            assert [access.issue_offset for access in data] == \
                list(range(1, len(data) + 1))
            assert len(fetches) <= 1
            counts.append(len(data))
        assert counts and all(1 <= count <= 6 for count in counts)
        if mean == 1.0:
            assert set(counts) == {1}

    def test_probability_extremes_decide_without_a_draw(self):
        """A probability of 0 or 1 decides its outcome without a draw: two
        profiles that differ only there give the same stream, except for
        what that probability decides."""
        never, always = (
            TraceGenerator(replace(get_profile("mcf"),
                                   pointer_chase_fraction=fraction),
                           seed=3).generate_single(2000).columns
            for fraction in (0.0, 1.0))
        for column in ("kinds", "flags", "pcs", "addresses", "dsts",
                       "targets", "wrong_paths"):
            assert getattr(never, column) == getattr(always, column)
        loads = [index for index, flags in enumerate(always.flags)
                 if flags & F_LOAD]
        assert len(loads) > 100
        assert not any(never.srcs[index] for index in loads)
        # Every load after the first reads the register the last one wrote.
        assert not always.srcs[loads[0]]
        assert all(always.srcs[load] == (always.dsts[previous],)
                   for previous, load in zip(loads, loads[1:]))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       length=st.integers(min_value=50, max_value=1500))
def test_generator_properties(seed, length):
    """Property: every generated op is well formed."""
    profile = get_profile("astar")
    trace = TraceGenerator(profile, seed=seed).generate_single(length)
    assert len(trace) == length
    for op in trace.ops:
        if op.kind.is_memory:
            assert op.address is not None and op.address >= 0
        if op.kind is OpKind.BRANCH:
            assert op.target is not None
        assert op.execution_latency >= 0

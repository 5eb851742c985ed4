"""Tests for the hierarchy, system builder, simulator and standard configs."""

import random

import pytest

from repro.baselines.invisispec import InvisiSpecMemorySystem
from repro.baselines.stt import STTMemorySystem
from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.caches.hierarchy import _REORDER_DRAW, NonSpeculativeHierarchy
from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.core.muontrap import MuonTrapMemorySystem
from repro.sim.runner import cumulative_protection_configs, standard_modes
from repro.sim.simulator import Simulator
from repro.sim.sweeps import (
    filter_cache_associativity_configs,
    filter_cache_size_configs,
)
from repro.sim.system import build_memory_system, build_system
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import get_profile


class TestHierarchy:
    def test_conventional_access_fills_l1_and_l2(self):
        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=1))
        _, hit_level = hierarchy.access(0, 0x1_0000, now=0)
        assert hit_level == "memory"
        assert hierarchy.l1d(0).contains(0x1_0000)
        assert hierarchy.l2.contains(0x1_0000)
        repeat_latency, repeat_level = hierarchy.access(0, 0x1_0000, now=500)
        assert repeat_level == "l1"
        assert repeat_latency == 2

    def test_read_for_filter_leaves_no_trace(self):
        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=1))
        _, hit_level, _ = hierarchy.read_for_filter(0, 0x2_0000, now=0)
        assert hit_level != "nack"
        assert not hierarchy.l1d(0).contains(0x2_0000)
        assert not hierarchy.l2.contains(0x2_0000)

    def test_commit_fill_l1_installs_line(self):
        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=1))
        hierarchy.commit_fill_l1(0, 0x3_0000, now=10)
        assert hierarchy.l1d(0).contains(0x3_0000)

    def test_flush_speculative_training_delivers_buffered_events(self):
        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=1))
        # The reorder window withholds the first three events.
        for index in range(3):
            hierarchy.train_l2_prefetcher(0x4_0000 + index * 64,
                                          now=10 + index)
        assert len(hierarchy._speculative_train_buffer) == 3
        trained_before = hierarchy.stats.get("l2_prefetcher.training_events")
        delivered = hierarchy.flush_speculative_training(now=100)
        assert delivered == 3
        assert not hierarchy._speculative_train_buffer
        assert (hierarchy.stats.get("l2_prefetcher.training_events")
                == trained_before + 3)
        # Idempotent once drained.
        assert hierarchy.flush_speculative_training(now=101) == 0

    def test_training_window_delivers_as_choice_would(self):
        """The window pops the slot ``choice(_REORDER_DRAW)`` would pick
        on the hierarchy's ``fork(999)`` stream, event after event."""
        delivered = []

        class Recorder:
            def train(self, event):
                delivered.append(event.address)
                return []

        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=1),
                                            rng=DeterministicRng(1234))
        hierarchy.l2_prefetcher = Recorder()
        for index in range(400):
            hierarchy.train_l2_prefetcher(index, now=index)
        window = random.Random(DeterministicRng(1234).fork(999).seed)
        buffer, expected = [], []
        for index in range(400):
            buffer.append(index)
            if len(buffer) > 3:
                expected.append(buffer.pop(window.choice(_REORDER_DRAW)))
        assert delivered == expected
        assert [event.address for event
                in hierarchy._speculative_train_buffer] == buffer

    def test_simulator_drains_training_buffer_at_end_of_run(self):
        config = SystemConfig(num_cores=1,
                              mode="unprotected")
        system = build_system(config, seed=3)
        workload = generate_workload(get_profile("mcf"), 600, seed=3)
        Simulator(system).run(workload)
        assert not (system.memory_system.hierarchy
                    ._speculative_train_buffer)

    def test_commit_store_reports_broadcast_need(self):
        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=2))
        _, _, triggered = hierarchy.commit_store(0, 0x4_0000, now=10,
                                                 broadcast_to_filters=True)
        assert triggered
        # A second store to the now-private line needs no broadcast.
        _, _, repeat_triggered = hierarchy.commit_store(
            0, 0x4_0000, now=50, broadcast_to_filters=True)
        assert not repeat_triggered


class TestSystemBuilder:
    @pytest.mark.parametrize("mode,expected", [
        ("unprotected", UnprotectedMemorySystem),
        ("muontrap", MuonTrapMemorySystem),
        ("invisispec-spectre", InvisiSpecMemorySystem),
        ("invisispec-future", InvisiSpecMemorySystem),
        ("stt-spectre", STTMemorySystem),
        ("stt-future", STTMemorySystem),
    ])
    def test_builds_correct_memory_system(self, mode, expected):
        memory = build_memory_system(SystemConfig(mode=mode))
        assert isinstance(memory, expected)

    def test_build_system_creates_one_core_per_context(self):
        system = build_system(SystemConfig(num_cores=4))
        assert system.num_cores == 4
        assert system.core(3).core_id == 3

    def test_process_ids_must_match_core_count(self):
        with pytest.raises(ValueError):
            build_system(SystemConfig(num_cores=2), process_ids=[0])


class TestSimulator:
    def test_single_threaded_run(self):
        workload = generate_workload(get_profile("hmmer"), 1200, seed=11)
        system = build_system(SystemConfig(mode="unprotected"))
        result = Simulator(system).run(workload)
        assert result.instructions == 1200
        assert result.cycles > 0
        assert result.ipc > 0

    def test_multithreaded_run_uses_all_cores(self):
        workload = generate_workload(get_profile("swaptions"), 600, seed=11)
        system = build_system(SystemConfig(mode="muontrap",
                                           num_cores=4))
        result = Simulator(system).run(workload)
        assert result.instructions == 2400
        assert all(core.committed_instructions == 600
                   for core in result.core_results)

    def test_warmup_excludes_cycles_but_not_state(self):
        workload = generate_workload(get_profile("hmmer"), 1500, seed=11)
        cold = Simulator(build_system(
            SystemConfig(mode="unprotected"))).run(workload)
        warm = Simulator(build_system(
            SystemConfig(mode="unprotected"))).run(
                workload, warmup_fraction=0.4)
        assert warm.warmup_cycles > 0
        assert warm.cycles < cold.cycles

    def test_too_many_threads_rejected(self):
        workload = generate_workload(get_profile("ferret"), 200, seed=1)
        system = build_system(SystemConfig(num_cores=1))
        with pytest.raises(ValueError):
            Simulator(system).run(workload)

    def test_deterministic_given_seed(self):
        workload = generate_workload(get_profile("gcc"), 800, seed=5)
        first = Simulator(build_system(
            SystemConfig(mode="muontrap"), seed=3)).run(workload)
        second = Simulator(build_system(
            SystemConfig(mode="muontrap"), seed=3)).run(workload)
        assert first.cycles == second.cycles


class TestExperimentConfigs:
    def test_standard_modes_and_ablation_configs(self):
        modes = standard_modes()
        assert set(modes) == {"MuonTrap", "InvisiSpec-Spectre",
                              "InvisiSpec-Future", "STT-Spectre",
                              "STT-Future"}
        ablation = cumulative_protection_configs(include_parallel_l1=True)
        assert list(ablation)[-1] == "parallel L1d"
        assert not ablation["fcache only"].protection.coherence_protection
        assert ablation["coherency"].protection.coherence_protection
        assert ablation["clear misspec"].protection.clear_on_misspeculate

    def test_sweep_configs(self):
        sizes = filter_cache_size_configs([64, 2048])
        assert sizes[64].data_filter.size_bytes == 64
        assert sizes[2048].data_filter.num_sets == 1  # fully associative
        ways = filter_cache_associativity_configs([1, 4])
        assert ways[1].data_filter.associativity == 1
        assert ways[4].data_filter.associativity == 4

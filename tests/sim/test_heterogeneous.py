"""Heterogeneous per-core machines and the differential regression layer.

The tentpole guarantee: making the per-core configuration explicit must be
*semantics-preserving*.  A heterogeneous ``SystemConfig`` whose per-core
entries are all identical has to produce bit-identical cycles and
statistics to the historical homogeneous path, for every protection scheme
and for 2- and 4-core mixes — that differential is what licenses the rest
of this file to trust the per-core plumbing when the entries genuinely
differ (big.LITTLE pipelines, asymmetric protection, mixed frontends on
one shared fabric).
"""

import pytest

from repro.common.params import (
    DEFAULT_PRIVATE_L2,
    CacheConfig,
    CoreConfig,
    ProtectionConfig,
    SystemConfig,
    big_core,
    biglittle_system_config,
    corun_system_config,
    heterogeneous_corun_config,
    little_core,
)
from repro.schemes import scheme_names
from repro.sim.hetero import HeterogeneousMemorySystem
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.generator import generate_workload
from repro.workloads.mixes import get_machine, machine_names
from repro.workloads.profiles import get_profile

SEED = 1234
INSTRUCTIONS = 300

#: (num_cores, mix) pairs the differential covers; the 4-core mix drives
#: four distinct address spaces through the shared fabric.
MIXES = {2: "mix-pointer-stream", 4: "mix-quad"}


def _run(config: SystemConfig, mix: str):
    profile = get_profile(mix)
    workload = generate_workload(profile, INSTRUCTIONS, seed=SEED)
    simulator = Simulator(build_system(config, seed=SEED))
    return simulator.run(workload, collect_stats=True)


class TestValidation:
    def test_core_list_length_must_match_num_cores(self):
        cores = (CoreConfig(), CoreConfig(), CoreConfig())
        with pytest.raises(ValueError, match="3 entries but num_cores is 2"):
            SystemConfig(num_cores=2, cores=cores)

    def test_per_core_line_size_must_match_shared_hierarchy(self):
        odd = CoreConfig(
            l1i=CacheConfig(name="l1i", size_bytes=16 * 1024,
                            associativity=2, line_size=32),
            l1d=CacheConfig(name="l1d", size_bytes=32 * 1024,
                            associativity=2, line_size=32))
        with pytest.raises(ValueError, match="core 1"):
            SystemConfig(num_cores=2, cores=(CoreConfig(), odd))

    def test_per_core_page_size_must_match_the_machine(self):
        from repro.common.params import TLBConfig
        odd = CoreConfig(tlb=TLBConfig(page_size=8192))
        with pytest.raises(ValueError, match="page size"):
            SystemConfig(num_cores=2, cores=(CoreConfig(), odd))

    def test_core_l1_line_sizes_must_agree(self):
        with pytest.raises(ValueError, match="L1 line sizes"):
            CoreConfig(l1i=CacheConfig(name="l1i", size_bytes=16 * 1024,
                                       associativity=2, line_size=32))

    def test_with_cores_tiles_an_explicit_core_list(self):
        machine = biglittle_system_config(
            ["muontrap"], ["unprotected"])
        grown = machine.with_cores(4)
        assert grown.num_cores == 4
        assert [core.pipeline.width for core in grown.core_configs()] == [
            8, 2, 8, 2]
        assert grown.core_schemes == (
            "muontrap", "unprotected", "muontrap", "unprotected")

    def test_with_mode_overrides_every_core(self):
        machine = heterogeneous_corun_config(
            ["muontrap", "unprotected"])
        uniform = machine.with_mode("stt-spectre")
        assert not uniform.is_scheme_heterogeneous
        assert uniform.mode_label == "stt-spectre"

    def test_mode_label(self):
        assert SystemConfig().mode_label == "muontrap"
        machine = heterogeneous_corun_config(
            ["muontrap", "unprotected"])
        assert machine.is_scheme_heterogeneous
        assert machine.mode_label == "muontrap+unprotected"

    def test_as_heterogeneous_preserves_the_derived_view(self):
        config = corun_system_config(num_cores=2)
        explicit = config.as_heterogeneous()
        assert explicit.cores == tuple(config.core_configs())
        assert explicit.core_config(0) == config.core_config(0)


class TestDifferentialRegression:
    """Identical-per-core heterogeneous == homogeneous, bit for bit."""

    @pytest.mark.parametrize("num_cores", sorted(MIXES))
    @pytest.mark.parametrize("mode", scheme_names())
    def test_identical_cores_match_homogeneous_path(self, mode, num_cores):
        config = corun_system_config(mode=mode, num_cores=num_cores)
        homogeneous = _run(config, MIXES[num_cores])
        heterogeneous = _run(config.as_heterogeneous(), MIXES[num_cores])
        assert heterogeneous.cycles == homogeneous.cycles
        assert heterogeneous.instructions == homogeneous.instructions
        assert heterogeneous.mode == homogeneous.mode
        assert heterogeneous.stats == homogeneous.stats
        assert [core.cycles for core in heterogeneous.core_results] == [
            core.cycles for core in homogeneous.core_results]

    def test_identical_cores_match_on_shared_l2_topology(self):
        """The differential also holds without private L2s."""
        config = corun_system_config("muontrap", num_cores=2,
                                     private_l2=False)
        homogeneous = _run(config, MIXES[2])
        heterogeneous = _run(config.as_heterogeneous(), MIXES[2])
        assert heterogeneous.cycles == homogeneous.cycles
        assert heterogeneous.stats == homogeneous.stats


class TestHeterogeneousExecution:
    def test_mixed_schemes_build_the_composite_memory_system(self):
        machine = heterogeneous_corun_config(
            ["muontrap", "unprotected"])
        system = build_system(machine, seed=0)
        memory = system.memory_system
        assert isinstance(memory, HeterogeneousMemorySystem)
        # One frontend per scheme, all wired to the one shared fabric.
        assert memory.frontend(0).name == "muontrap"
        assert memory.frontend(1).name == "unprotected"
        assert memory.frontend(0).hierarchy is memory.hierarchy
        assert memory.frontend(1).hierarchy is memory.hierarchy
        # Each core is driven against its own scheme frontend.
        assert system.core(0).memory is memory.frontend(0)
        assert system.core(1).memory is memory.frontend(1)

    def test_uniform_core_list_builds_a_single_scheme_system(self):
        config = corun_system_config("unprotected",
                                     num_cores=2).as_heterogeneous()
        system = build_system(config, seed=0)
        assert not isinstance(system.memory_system,
                              HeterogeneousMemorySystem)
        assert system.memory_system.name == "unprotected"

    def test_biglittle_pipelines_and_caches_differ_per_core(self):
        machine = biglittle_system_config(
            ["muontrap"], ["muontrap"])
        system = build_system(machine, seed=0)
        big, little = system.core(0), system.core(1)
        assert big.core_config.width == 8
        assert little.core_config.width == 2
        assert (little.core_config.rob_entries
                < big.core_config.rob_entries)
        hierarchy = system.memory_system.hierarchy
        assert hierarchy.l1d(0).config.size_bytes == 64 * 1024
        assert hierarchy.l1d(1).config.size_bytes == 32 * 1024
        assert hierarchy.private_l2(0).config.size_bytes == 256 * 1024
        assert hierarchy.private_l2(1).config.size_bytes == 128 * 1024

    def test_little_core_is_dispatch_bound_on_alu_work(self):
        """A 2-wide LITTLE core must be bandwidth-bound relative to the big
        core on pure ALU work: 400 independent single-cycle ops need at
        least 200 cycles at width 2, while the 8-wide core stays far
        below that."""
        from repro.cpu.instructions import MicroOp, OpKind

        machine = biglittle_system_config(
            ["unprotected"], ["unprotected"])
        ops = [MicroOp(kind=OpKind.INT_ALU, pc=0x1000 + 4 * index)
               for index in range(400)]
        # Fresh system per measurement: running both cores on one machine
        # would hand the second run a warm shared LLC.
        big = build_system(machine, seed=SEED).core(0).run(iter(ops))
        little = build_system(machine, seed=SEED).core(1).run(iter(ops))
        assert little.cycles > big.cycles
        assert little.cycles >= 200

    def test_heterogeneous_run_is_deterministic(self):
        machine = heterogeneous_corun_config(
            ["muontrap", "unprotected"])
        first = _run(machine, MIXES[2])
        second = _run(machine, MIXES[2])
        assert first.cycles == second.cycles
        assert first.stats == second.stats
        assert first.mode == "muontrap+unprotected"

    def test_mixed_stt_core_only_delays_its_own_transmitters(self):
        """Capability probes are per core: an STT core's taint machinery
        must not leak onto its unprotected neighbour."""
        machine = heterogeneous_corun_config(
            ["stt-spectre", "unprotected"])
        system = build_system(machine, seed=0)
        assert system.core(0)._stt_mode
        assert not system.core(1)._stt_mode

    @pytest.mark.parametrize("name", machine_names())
    def test_every_machine_preset_builds_and_runs(self, name):
        machine = get_machine(name)
        result = _run(machine.with_cores(2), "mix-pointer-stream")
        assert result.instructions == 2 * INSTRUCTIONS
        assert result.cycles > 0
        assert result.core_benchmarks == ["mcf", "lbm"]

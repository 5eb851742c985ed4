"""Multi-core co-run simulation: private hierarchies, scheduling, results."""

import pytest

from repro.common.params import (
    DEFAULT_PRIVATE_L2,
    SystemConfig,
    corun_system_config,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import get_profile


def _corun_result(mode="unprotected", mix="mix-pointer-stream",
                  instructions=300, seed=7, private_l2=True,
                  collect_stats=False) -> SimulationResult:
    profile = get_profile(mix)
    config = corun_system_config(mode=mode, num_cores=profile.num_threads,
                                 private_l2=private_l2)
    workload = generate_workload(profile, instructions, seed=seed)
    simulator = Simulator(build_system(config, seed=seed))
    return simulator.run(workload, collect_stats=collect_stats)


class TestPrivateL2Construction:
    def test_corun_config_gets_private_l2(self):
        config = corun_system_config(num_cores=2)
        assert config.private_l2 == DEFAULT_PRIVATE_L2
        assert config.num_cores == 2

    def test_private_l2_line_size_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(private_l2=DEFAULT_PRIVATE_L2.__class__(
                name="l2p", size_bytes=64 * 1024, associativity=4,
                line_size=32))

    def test_hierarchy_builds_one_private_l2_per_core(self):
        config = corun_system_config("unprotected", num_cores=3)
        system = build_system(config, seed=0)
        hierarchy = system.memory_system.hierarchy
        l2ps = [hierarchy.private_l2(core) for core in range(3)]
        assert all(l2p is not None for l2p in l2ps)
        assert len({id(l2p) for l2p in l2ps}) == 3
        # Each core's private caches (L1d + L2p) sit on the coherence bus.
        for core in range(3):
            assert hierarchy.bus.private_caches(core) == [
                hierarchy.l1d(core), l2ps[core]]

    def test_default_topology_has_no_private_l2(self):
        system = build_system(SystemConfig(num_cores=2), seed=0)
        hierarchy = system.memory_system.hierarchy
        assert hierarchy.private_l2(0) is None
        assert hierarchy.bus.private_caches(0) == [hierarchy.l1d(0)]

    def test_private_l2_absorbs_l1_victims(self):
        """A miss serviced once is later served by the private L2, not the
        bus: the hit goes to the ``l2p`` level."""
        config = corun_system_config("unprotected", num_cores=2)
        system = build_system(config, seed=0)
        hierarchy = system.memory_system.hierarchy
        line = 0x4_0000
        _, first_level = hierarchy.access(0, line, 0)
        assert first_level == "memory"
        # Evict from the (tiny relative to L2p) L1 by filling its set.
        l1 = hierarchy.l1d(0)
        set_period = l1.num_sets * l1.line_size
        for way in range(1, l1.associativity + 2):
            hierarchy.access(0, line + way * set_period, 100 + way)
        assert l1.probe(line) is None
        _, again_level = hierarchy.access(0, line, 1000)
        assert again_level == "l2p"


class TestCoRunExecution:
    def test_per_core_results_carry_benchmarks(self):
        result = _corun_result()
        assert result.core_benchmarks == ["mcf", "lbm"]
        assert result.is_corun
        assert len(result.core_results) == 2
        parts = result.per_benchmark()
        assert set(parts) == {"mcf", "lbm"}
        assert parts["mcf"].cycles == result.core_results[0].cycles
        assert parts["lbm"].cycles == result.core_results[1].cycles
        assert result.cycles == max(part.cycles for part in parts.values())
        assert result.instructions == sum(part.instructions
                                          for part in parts.values())

    def test_single_program_result_is_not_corun(self, seeded_config):
        config, seed = seeded_config
        profile = get_profile("mcf")
        workload = generate_workload(profile, 200, seed=seed)
        system = build_system(config, seed=seed)
        result = Simulator(system).run(workload)
        assert result.core_benchmarks == ["mcf"]
        assert not result.is_corun

    def test_per_benchmark_excludes_warmup_like_the_aggregate(self):
        """With warm-up enabled the parts must stay consistent with the
        aggregate: same accounting, no warm-up cycles leaking back in."""
        profile = get_profile("mix-pointer-stream")
        config = corun_system_config("unprotected",
                                     num_cores=profile.num_threads)
        workload = generate_workload(profile, 400, seed=7)
        result = Simulator(build_system(config, seed=7)).run(
            workload, warmup_fraction=0.35)
        assert result.warmup_cycles > 0
        parts = result.per_benchmark()
        assert result.cycles == max(part.cycles for part in parts.values())
        assert result.instructions == sum(part.instructions
                                          for part in parts.values())
        for part in parts.values():
            assert 0 < part.cycles <= result.cycles

    def test_corun_is_deterministic(self, seeded_config):
        _, seed = seeded_config
        first = _corun_result(seed=seed, collect_stats=True)
        second = _corun_result(seed=seed, collect_stats=True)
        assert first.cycles == second.cycles
        assert first.stats == second.stats

    def test_constituents_contend_in_the_shared_llc(self):
        """Co-running two programs must be slower for at least one of them
        than running alone on the same topology (LLC/bus contention)."""
        together = _corun_result(mix="mix-pointer-pointer",
                                 instructions=400)
        parts = together.per_benchmark()
        alone = {}
        for benchmark in parts:
            profile = get_profile(benchmark)
            config = corun_system_config("unprotected",
                                         num_cores=2)
            workload = generate_workload(profile, 400, seed=7)
            system = build_system(config, seed=7)
            alone[benchmark] = Simulator(system).run(workload)
        assert any(parts[b].cycles >= alone[b].cycles for b in parts)

    def test_distinct_address_spaces_do_not_alias(self):
        """Identical virtual addresses in different processes are distinct
        physical lines: a same-benchmark mix stays coherent and its cores'
        private caches never share lines."""
        from repro.workloads.mixes import MixProfile, generate_mix
        mix = MixProfile(name="test-twin", members=("lbm", "lbm"))
        workload = generate_mix(mix, 200, seed=2)
        config = corun_system_config("unprotected", num_cores=2)
        system = build_system(config, seed=2)
        result = Simulator(system).run(workload)
        assert result.instructions == 400
        hierarchy = system.memory_system.hierarchy
        lines0 = {line.address
                  for line in hierarchy.l1d(0).resident_lines()}
        lines1 = {line.address
                  for line in hierarchy.l1d(1).resident_lines()}
        assert not lines0 & lines1

    @pytest.mark.parametrize("mode", ["muontrap", "unprotected"])
    def test_corun_runs_under_both_topologies(self, mode):
        with_l2p = _corun_result(mode=mode, private_l2=True)
        without = _corun_result(mode=mode, private_l2=False)
        assert with_l2p.instructions == without.instructions == 600
        assert with_l2p.cycles > 0 and without.cycles > 0

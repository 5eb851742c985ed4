"""Golden equivalence: the packed engine must match the per-op engine.

The packed-trace fast path (`OutOfOrderCore.run_packed`) re-implements the
per-instruction semantics of `execute_op` as a zero-allocation loop that
executes same-line runs of simple ops as batches.  These tests pin the
contract down: for every protection scheme the paper evaluates, running
the same workload through the per-op and packed engines must produce a
**bit-identical** `SimulationResult` — cycles, instructions, warmup
cycles, per-core results and the complete statistics tree.  Any
divergence, however small, is a bug in one of the engines.
"""

import pytest

from repro.common.params import (
    ProtectionMode,
    SystemConfig,
    corun_system_config,
)
from repro.harness.suites import resolve_suites
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system
from repro.workloads.generator import generate_workload
from repro.workloads.mixes import get_machine
from repro.workloads.profiles import get_profile

#: The five schemes of the acceptance matrix (Figures 3 and 4).
SCHEMES = [
    ProtectionMode.UNPROTECTED,
    ProtectionMode.INSECURE_L0,
    ProtectionMode.MUONTRAP,
    ProtectionMode.INVISISPEC_SPECTRE,
    ProtectionMode.STT_SPECTRE,
]

SEEDS = [7, 1234]

#: A cross-section of the ``mixed`` suite: integer SPEC, floating-point
#: SPEC (including the prefetcher-sensitive lbm and the associativity-
#: sensitive cactusADM) and a four-threaded Parsec workload.
CROSS_SECTION = ["mcf", "omnetpp", "lbm", "cactusADM", "streamcluster"]

INSTRUCTIONS = 500

#: Simulator ``use_packed`` flag selecting each engine.
ENGINES = {"per-op": False, "packed": True}


def _simulate(config: SystemConfig, profile, seed: int,
              engine: str) -> SimulationResult:
    workload = generate_workload(profile, INSTRUCTIONS, seed=seed)
    simulator = Simulator(build_system(config, seed=seed),
                          use_packed=ENGINES[engine])
    return simulator.run(workload, collect_stats=True, warmup_fraction=0.35)


def _run(mode: ProtectionMode, benchmark: str, seed: int,
         engine: str) -> SimulationResult:
    profile = get_profile(benchmark)
    config = SystemConfig(mode=mode).with_cores(max(1, profile.num_threads))
    return _simulate(config, profile, seed, engine)


def _assert_identical(candidate: SimulationResult, per_op: SimulationResult,
                      context: str) -> None:
    assert candidate.cycles == per_op.cycles, context
    assert candidate.instructions == per_op.instructions, context
    assert candidate.warmup_cycles == per_op.warmup_cycles, context
    assert candidate.core_results == per_op.core_results, context
    # The full statistics tree, key by key, so a mismatch names the stat.
    assert set(candidate.stats) == set(per_op.stats), context
    for key, value in per_op.stats.items():
        assert candidate.stats[key] == value, f"{context}: {key}"


def _assert_two_way(runner, context: str) -> None:
    """per-op ≡ packed for one (config, workload, seed)."""
    _assert_identical(runner("packed"), runner("per-op"), context)


class TestPackedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", SCHEMES,
                             ids=[mode.value for mode in SCHEMES])
    def test_every_scheme_bit_identical_across_cross_section(self, mode,
                                                             seed):
        for benchmark in CROSS_SECTION:
            _assert_two_way(
                lambda engine: _run(mode, benchmark, seed, engine),
                f"{mode.value}/{benchmark}/seed={seed}")

    def test_full_mixed_suite_bit_identical(self):
        """Every benchmark of the ``mixed`` suite under the full defence."""
        for benchmark in resolve_suites(["mixed"]):
            _assert_two_way(
                lambda engine: _run(ProtectionMode.MUONTRAP, benchmark,
                                    SEEDS[0], engine),
                f"mixed/{benchmark}")

    def test_invisispec_future_and_stt_future_bit_identical(self):
        """The -Future variants exercise distinct visibility-point logic."""
        for mode in (ProtectionMode.INVISISPEC_FUTURE,
                     ProtectionMode.STT_FUTURE):
            for benchmark in ("mcf", "lbm"):
                _assert_two_way(
                    lambda engine: _run(mode, benchmark, SEEDS[1], engine),
                    f"{mode.value}/{benchmark}")


class TestHeterogeneousEquivalence:
    """big.LITTLE machine presets through both engines.

    Heterogeneous machines stress what homogeneous runs cannot: per-core
    pipeline widths and ROB capacities (the batched dispatch and commit
    must honour each core's own width), per-core protection modes (an
    unprotected LITTLE core beside an STT big core), and the hetero
    memory system's ``commit_fetch`` override, which disables the packed
    engine's no-op-elision fast path.
    """

    PRESETS = ["biglittle-muontrap", "biglittle-asym"]

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_biglittle_presets_bit_identical(self, preset, seed):
        config = get_machine(preset)
        profile = get_profile("mix-pointer-stream")
        _assert_two_way(
            lambda engine: _simulate(config, profile, seed, engine),
            f"{preset}/seed={seed}")


def _run_corun(mode: ProtectionMode, mix: str, seed: int,
               engine: str) -> SimulationResult:
    profile = get_profile(mix)
    config = corun_system_config(mode=mode, num_cores=profile.num_threads)
    return _simulate(config, profile, seed, engine)


class TestCoRunPackedEquivalence:
    """Multi-programmed co-run mixes through all engines, bit-identical.

    This covers the whole co-run machinery — per-core private L1/L2
    hierarchies, the snoop-filtered coherence bus, the shared LLC, distinct
    address spaces per constituent — under every execution engine.
    """

    #: Two mixes chosen to cover 2-core and 4-core systems.
    MIXES = ["mix-pointer-stream", "mix-quad"]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", SCHEMES,
                             ids=[mode.value for mode in SCHEMES])
    def test_corun_bit_identical_across_engines(self, mode, seed):
        for mix in self.MIXES:
            per_op = _run_corun(mode, mix, seed, "per-op")
            candidate = _run_corun(mode, mix, seed, "packed")
            _assert_identical(candidate, per_op, f"{mode.value}/{mix}/{seed}")
            assert candidate.core_benchmarks == per_op.core_benchmarks
            assert candidate.is_corun

    def test_corun_deterministic_across_runs(self):
        """The same spec twice gives byte-identical results."""
        first = _run_corun(ProtectionMode.MUONTRAP, "mix-pointer-stream",
                           SEEDS[0], "packed")
        second = _run_corun(ProtectionMode.MUONTRAP, "mix-pointer-stream",
                            SEEDS[0], "packed")
        _assert_identical(first, second, "determinism")

    @pytest.mark.slow
    def test_all_mixes_all_schemes_bit_identical(self):
        """The broad sweep: every mix under every scheme (tier-2)."""
        for mix in resolve_suites(["mixes"]):
            for mode in SCHEMES:
                _assert_two_way(
                    lambda engine: _run_corun(mode, mix, SEEDS[0], engine),
                    f"{mode.value}/{mix}")

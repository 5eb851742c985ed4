"""Golden equivalence: a traced run must match an untraced one.

The core's one engine (`OutOfOrderCore.run_packed`) runs every op through
one loop.  With a tracer active, that loop also emits pipeline events and
moves `tracer.now`; telemetry must never change timing.  So for every
protection scheme the paper evaluates, an untraced run must produce a
**bit-identical** `SimulationResult` to a run under an active tracer that
records nothing (`Tracer(categories=())`), whose hook points all run —
cycles, instructions, warmup cycles, per-core results and the complete
statistics tree.  Any divergence, however small, is a bug in a hook.
"""

import pytest

from repro.common.params import (
    SystemConfig,
    corun_system_config,
)
from repro.harness.suites import resolve_suites
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system
from repro.telemetry import Tracer, tracing
from repro.workloads.generator import generate_workload
from repro.workloads.mixes import get_machine
from repro.workloads.profiles import get_profile

#: The five schemes of the acceptance matrix (Figures 3 and 4).
SCHEMES = [
    "unprotected",
    "insecure-l0",
    "muontrap",
    "invisispec-spectre",
    "stt-spectre",
]

SEEDS = [7, 1234]

#: A cross-section of the ``mixed`` suite: integer SPEC, floating-point
#: SPEC (including the prefetcher-sensitive lbm and the associativity-
#: sensitive cactusADM) and a four-threaded Parsec workload.
CROSS_SECTION = ["mcf", "omnetpp", "lbm", "cactusADM", "streamcluster"]

INSTRUCTIONS = 500

#: The tracer each way of running installs: none, or an active one that
#: records nothing, so every pipeline hook point runs.
TRACERS = {"untraced": lambda: None,
           "traced": lambda: Tracer(categories=())}


def _simulate(config: SystemConfig, profile, seed: int,
              tracer: str) -> SimulationResult:
    workload = generate_workload(profile, INSTRUCTIONS, seed=seed)
    simulator = Simulator(build_system(config, seed=seed))
    with tracing(TRACERS[tracer]()):
        return simulator.run(workload, collect_stats=True,
                             warmup_fraction=0.35)


def _run(mode: str, benchmark: str, seed: int,
         tracer: str) -> SimulationResult:
    profile = get_profile(benchmark)
    config = SystemConfig(mode=mode).with_cores(max(1, profile.num_threads))
    return _simulate(config, profile, seed, tracer)


def _assert_identical(candidate: SimulationResult,
                      reference: SimulationResult, context: str) -> None:
    assert candidate.cycles == reference.cycles, context
    assert candidate.instructions == reference.instructions, context
    assert candidate.warmup_cycles == reference.warmup_cycles, context
    assert candidate.core_results == reference.core_results, context
    # The full statistics tree, key by key, so a mismatch names the stat.
    assert set(candidate.stats) == set(reference.stats), context
    for key, value in reference.stats.items():
        assert candidate.stats[key] == value, f"{context}: {key}"


def _assert_two_way(runner, context: str) -> None:
    """traced ≡ untraced for one (config, workload, seed)."""
    _assert_identical(runner("untraced"), runner("traced"), context)


class TestPackedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", SCHEMES)
    def test_every_scheme_bit_identical_across_cross_section(self, mode,
                                                             seed):
        for benchmark in CROSS_SECTION:
            _assert_two_way(
                lambda tracer: _run(mode, benchmark, seed, tracer),
                f"{mode}/{benchmark}/seed={seed}")

    def test_full_mixed_suite_bit_identical(self):
        """Every benchmark of the ``mixed`` suite under the full defence."""
        for benchmark in resolve_suites(["mixed"]):
            _assert_two_way(
                lambda tracer: _run("muontrap", benchmark,
                                    SEEDS[0], tracer),
                f"mixed/{benchmark}")

    def test_invisispec_future_and_stt_future_bit_identical(self):
        """The -Future variants exercise distinct visibility-point logic."""
        for mode in ("invisispec-future",
                     "stt-future"):
            for benchmark in ("mcf", "lbm"):
                _assert_two_way(
                    lambda tracer: _run(mode, benchmark, SEEDS[1], tracer),
                    f"{mode}/{benchmark}")


class TestHeterogeneousEquivalence:
    """big.LITTLE machine presets, traced and untraced.

    Heterogeneous machines stress what homogeneous runs cannot: per-core
    pipeline widths and ROB capacities, per-core protection modes (an
    unprotected LITTLE core beside an STT big core), and the hetero
    memory system's ``commit_fetch`` override, which makes the engine
    call the hook for every committed op.
    """

    PRESETS = ["biglittle-muontrap", "biglittle-asym"]

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_biglittle_presets_bit_identical(self, preset, seed):
        config = get_machine(preset)
        profile = get_profile("mix-pointer-stream")
        _assert_two_way(
            lambda tracer: _simulate(config, profile, seed, tracer),
            f"{preset}/seed={seed}")


def _run_corun(mode: str, mix: str, seed: int,
               tracer: str) -> SimulationResult:
    profile = get_profile(mix)
    config = corun_system_config(mode=mode, num_cores=profile.num_threads)
    return _simulate(config, profile, seed, tracer)


class TestCoRunPackedEquivalence:
    """Multi-programmed co-run mixes, traced and untraced, bit-identical.

    This covers the whole co-run machinery — per-core private L1/L2
    hierarchies, the snoop-filtered coherence bus, the shared LLC, distinct
    address spaces per constituent — with and without a tracer.
    """

    #: Two mixes chosen to cover 2-core and 4-core systems.
    MIXES = ["mix-pointer-stream", "mix-quad"]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", SCHEMES)
    def test_corun_bit_identical_traced_and_untraced(self, mode, seed):
        for mix in self.MIXES:
            traced = _run_corun(mode, mix, seed, "traced")
            candidate = _run_corun(mode, mix, seed, "untraced")
            _assert_identical(candidate, traced, f"{mode}/{mix}/{seed}")
            assert candidate.core_benchmarks == traced.core_benchmarks
            assert candidate.is_corun

    def test_corun_deterministic_across_runs(self):
        """The same spec twice gives byte-identical results."""
        first = _run_corun("muontrap", "mix-pointer-stream",
                           SEEDS[0], "untraced")
        second = _run_corun("muontrap", "mix-pointer-stream",
                            SEEDS[0], "untraced")
        _assert_identical(first, second, "determinism")

    @pytest.mark.slow
    def test_all_mixes_all_schemes_bit_identical(self):
        """The broad sweep: every mix under every scheme (tier-2)."""
        for mix in resolve_suites(["mixes"]):
            for mode in SCHEMES:
                _assert_two_way(
                    lambda tracer: _run_corun(mode, mix, SEEDS[0], tracer),
                    f"{mode}/{mix}")

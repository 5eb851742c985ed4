"""Differential suite: registry dispatch ≡ the pre-registry dispatch.

The scheme registry replaced a literal if-chain over the seven built-in
schemes.  These tests keep a faithful copy of that chain, keyed by scheme
name, and prove that, for all seven built-in schemes, a system dispatched
through the registry simulates **bit-identically** (cycles, instructions,
and the full statistics tree) to one dispatched through the legacy chain.
A heterogeneous machine whose per-core scheme names were read back from a
machine file dispatches exactly like the in-memory preset.

(The heterogeneous presets are additionally pinned end-to-end by the
golden snapshots in ``test_golden_stats.py``, which predate the registry.)
"""

import json

import pytest

from repro.baselines.insecure_l0 import InsecureL0MemorySystem
from repro.baselines.invisispec import InvisiSpecMemorySystem
from repro.baselines.stt import STTMemorySystem
from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.machine import machine_from_dict, machine_to_dict
from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.core.muontrap import MuonTrapMemorySystem
from repro.cpu.core import OutOfOrderCore
from repro.memory.page_table import PageTableManager
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem, build_system
from repro.workloads.generator import generate_workload
from repro.workloads.mixes import get_machine
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 500
SEED = 1234
WARMUP = 0.25


BUILTIN_SCHEMES = ["unprotected", "insecure-l0", "muontrap",
                   "invisispec-spectre", "invisispec-future",
                   "stt-spectre", "stt-future"]


def legacy_frontend_factory(mode):
    """A faithful copy of the pre-registry dispatch if-chain."""
    if mode == "muontrap":
        return MuonTrapMemorySystem
    if mode == "unprotected":
        return UnprotectedMemorySystem
    if mode == "insecure-l0":
        return InsecureL0MemorySystem
    if mode in ("invisispec-spectre", "invisispec-future"):
        def build_invisispec(config, **kwargs):
            return InvisiSpecMemorySystem(
                config, future_variant=mode == "invisispec-future",
                **kwargs)
        return build_invisispec
    if mode in ("stt-spectre", "stt-future"):
        def build_stt(config, **kwargs):
            return STTMemorySystem(
                config, future_variant=mode == "stt-future", **kwargs)
        return build_stt
    raise ValueError(f"unknown protection mode: {mode!r}")


def legacy_build_system(config: SystemConfig, seed: int) -> SimulatedSystem:
    """The pre-registry single-scheme construction path, verbatim."""
    stats = StatGroup("system")
    rng = DeterministicRng(seed)
    page_tables = PageTableManager(page_size=config.tlb.page_size)
    memory_system = legacy_frontend_factory(config.mode)(
        config, page_tables=page_tables,
        stats=stats.child("memory_system"), rng=rng)
    cores = [
        OutOfOrderCore(core_id, config, memory_system.frontend(core_id),
                       process_id=0, stats=stats.child(f"core{core_id}"))
        for core_id in range(config.num_cores)
    ]
    return SimulatedSystem(config=config, memory_system=memory_system,
                           cores=cores, stats=stats,
                           page_tables=page_tables)


def run(system, benchmark="mcf"):
    profile = get_profile(benchmark)
    workload = generate_workload(profile, INSTRUCTIONS, seed=SEED)
    return Simulator(system).run(workload, collect_stats=True,
                                 warmup_fraction=WARMUP)


def assert_identical(left, right):
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.warmup_cycles == right.warmup_cycles
    assert left.core_results == right.core_results
    assert left.stats == right.stats


class TestHomogeneousDifferential:
    @pytest.mark.parametrize("mode", BUILTIN_SCHEMES)
    def test_registry_bit_identical_to_legacy_chain(self, mode):
        config = SystemConfig(mode=mode)
        registry = run(build_system(config, seed=SEED))
        legacy = run(legacy_build_system(config, seed=SEED))
        assert_identical(registry, legacy)


class TestHeterogeneousDifferential:
    @pytest.mark.parametrize("preset", ["biglittle-asym", "asym-protect"])
    def test_machine_file_names_dispatch_like_the_preset(self, preset):
        config = get_machine(preset)
        loaded = machine_from_dict(json.loads(json.dumps(
            machine_to_dict(config))))
        assert loaded.core_schemes == config.core_schemes
        assert all(type(name) is str for name in loaded.core_schemes)
        left = run(build_system(config, seed=SEED), "mix-pointer-stream")
        right = run(build_system(loaded, seed=SEED), "mix-pointer-stream")
        assert_identical(left, right)

    def test_hetero_composite_uses_registry_frontends(self):
        config = get_machine("asym-protect")
        system = build_system(config, seed=SEED)
        frontends = system.memory_system.scheme_frontends
        assert set(frontends) == {"muontrap", "unprotected"}
        assert isinstance(frontends["muontrap"], MuonTrapMemorySystem)
        assert isinstance(frontends["unprotected"],
                          UnprotectedMemorySystem)

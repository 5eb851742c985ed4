"""Simulation driver: system construction, execution and standard configs."""

from repro.sim.runner import (
    cumulative_protection_configs,
    env_int,
    instructions_per_workload,
    parallel_jobs,
    standard_modes,
    unprotected_config,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.sweeps import (
    DEFAULT_ASSOCIATIVITY_SWEEP,
    DEFAULT_SIZE_SWEEP,
    filter_cache_associativity_configs,
    filter_cache_size_configs,
)
from repro.sim.system import SimulatedSystem, build_memory_system, build_system

__all__ = [
    "DEFAULT_ASSOCIATIVITY_SWEEP",
    "DEFAULT_SIZE_SWEEP",
    "SimulatedSystem",
    "SimulationResult",
    "Simulator",
    "build_memory_system",
    "build_system",
    "cumulative_protection_configs",
    "env_int",
    "filter_cache_associativity_configs",
    "filter_cache_size_configs",
    "instructions_per_workload",
    "parallel_jobs",
    "standard_modes",
    "unprotected_config",
]

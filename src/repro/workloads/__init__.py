"""Synthetic workload models of SPEC CPU2006 and Parsec."""

from repro.workloads.generator import TraceGenerator, generate_workload
from repro.workloads.mixes import (
    MIX_PROFILES,
    MixProfile,
    generate_mix,
    get_mix,
    mix_names,
)
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC2006_PROFILES,
    WorkloadProfile,
    get_profile,
    parsec_benchmarks,
    spec_benchmarks,
)
from repro.workloads.trace import PackedTrace, Trace, WorkloadTraces

__all__ = [
    "MIX_PROFILES",
    "MixProfile",
    "PARSEC_PROFILES",
    "SPEC2006_PROFILES",
    "PackedTrace",
    "Trace",
    "TraceGenerator",
    "WorkloadProfile",
    "WorkloadTraces",
    "generate_mix",
    "generate_workload",
    "get_mix",
    "get_profile",
    "mix_names",
    "parsec_benchmarks",
    "spec_benchmarks",
]

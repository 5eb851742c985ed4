"""Multi-programmed co-run mixes.

A :class:`MixProfile` names a tuple of constituent benchmarks that run
*concurrently on different cores in different address spaces*, contending
in the shared LLC and on the coherence bus.  This is the multi-programmed
counterpart of the multi-threaded Parsec workloads: where Parsec threads
share one process and cooperate, mix constituents are independent programs
whose only interaction is through the shared levels of the memory system —
the scenario the paper's cross-core attacks (and the co-run methodology of
the ISCA evaluation retrospectives) are about.

Mixes are first-class benchmarks: :func:`repro.workloads.profiles.get_profile`
resolves their names, the suite registry exposes them (suite ``mixes``), and
campaigns sweep them over schemes × seeds like any other workload.  Mix
composition reuses the trace cache per *constituent*: each member's trace is
generated (or fetched) exactly as it would be for a single-program run and
then re-bound, without copying its packed columns, to the mix's per-core
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.common.machine import machine_from_dict
from repro.common.params import SystemConfig
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC2006_PROFILES,
    WorkloadProfile,
)
from repro.workloads.trace import Trace, WorkloadTraces


@dataclass(frozen=True)
class MixProfile:
    """A named multi-programmed workload: one constituent per process."""

    name: str
    members: Tuple[str, ...]
    suite: str = "mix"

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a mix needs at least two constituents")
        for member in self.members:
            if (member not in SPEC2006_PROFILES
                    and member not in PARSEC_PROFILES):
                raise ValueError(f"unknown mix constituent: {member!r}")

    @property
    def num_threads(self) -> int:
        """Hardware contexts the mix occupies (one per constituent thread)."""
        return sum(self.member_profile(index).num_threads
                   for index in range(len(self.members)))

    def member_profile(self, index: int) -> WorkloadProfile:
        member = self.members[index]
        if member in SPEC2006_PROFILES:
            return SPEC2006_PROFILES[member]
        return PARSEC_PROFILES[member]


def _mix(name: str, *members: str) -> MixProfile:
    return MixProfile(name=name, members=tuple(members))


#: The built-in co-run mixes.  Pairings follow the classic co-run taxonomy:
#: pointer-chasing (mcf, omnetpp), streaming (lbm, libquantum), cache-
#: sensitive (xalancbmk) and compute-bound (povray) programs combined so
#: that LLC contention, prefetcher interference and coherence traffic are
#: each exercised; ``mix-quad`` fills four cores.
MIX_PROFILES: Dict[str, MixProfile] = {
    profile.name: profile for profile in [
        _mix("mix-pointer-stream", "mcf", "lbm"),
        _mix("mix-pointer-pointer", "mcf", "omnetpp"),
        _mix("mix-stream-stream", "lbm", "libquantum"),
        _mix("mix-compute-memory", "povray", "mcf"),
        _mix("mix-cache-stream", "xalancbmk", "libquantum"),
        _mix("mix-quad", "mcf", "lbm", "omnetpp", "libquantum"),
    ]
}


def mix_names() -> List[str]:
    return sorted(MIX_PROFILES)


# -- heterogeneous machine presets -------------------------------------------
#
# Named machines the co-run mixes are swept over: where a MixProfile says
# *what* runs, a machine preset says what it runs *on*.  Each preset is
# pure data — a (partial) machine description resolved through
# :func:`repro.common.machine.machine_from_dict`, exactly the format
# ``python -m repro run --machine-file`` reads from disk — so defining a
# new machine means writing a dict, not code.  Omitted keys take the
# Table 1 defaults; `python -m repro run --machine <name>` puts a preset
# in the campaign matrix beside (or instead of) the homogeneous schemes.

#: The big cores' private L2: 256 KiB 8-way between the L1s and the LLC.
_BIG_PRIVATE_L2: Dict[str, Any] = {
    "name": "l2p", "size_bytes": 256 * 1024, "associativity": 8,
    "hit_latency": 10, "mshrs": 8,
}

#: The LITTLE cores' private L2: half the capacity, slightly faster.
_LITTLE_PRIVATE_L2: Dict[str, Any] = {
    "name": "l2p", "size_bytes": 128 * 1024, "associativity": 8,
    "hit_latency": 8, "mshrs": 4,
}

#: A Table 1 big core with its private L2 (mode defaults to MuonTrap).
_BIG_CORE: Dict[str, Any] = {"private_l2": _BIG_PRIVATE_L2}

#: A LITTLE core: 2-wide shallow pipeline at 1.2 GHz, halved L1s, small
#: private L2, same filter-cache geometry as the big cores.
_LITTLE_CORE: Dict[str, Any] = {
    "pipeline": {
        "width": 2, "rob_entries": 64, "iq_entries": 16,
        "lq_entries": 16, "sq_entries": 16,
        "int_registers": 96, "fp_registers": 96,
        "int_alus": 2, "fp_alus": 1, "mult_div_alus": 1,
        "branch_predictor": {
            "local_entries": 512, "global_entries": 2048,
            "chooser_entries": 512, "btb_entries": 1024,
            "ras_entries": 8,
        },
        "mispredict_penalty": 8, "frequency_ghz": 1.2,
    },
    "l1i": {"name": "l1i", "size_bytes": 16 * 1024, "associativity": 2,
            "hit_latency": 1, "mshrs": 2},
    "l1d": {"name": "l1d", "size_bytes": 32 * 1024, "associativity": 2,
            "hit_latency": 2, "mshrs": 2},
    "private_l2": _LITTLE_PRIVATE_L2,
}


def _core(base: Dict[str, Any], **overrides: Any) -> Dict[str, Any]:
    """A per-core description: a core template plus field overrides."""
    return {**base, **overrides}


#: name -> machine description.  ``get_machine`` resolves these through
#: the same code path as machine files on disk.
MACHINE_PRESETS: Dict[str, Dict[str, Any]] = {
    # A fully protected big.LITTLE pair: MuonTrap on both core classes.
    "biglittle-muontrap": {
        "num_cores": 2,
        "cores": [_core(_BIG_CORE), _core(_LITTLE_CORE)],
    },
    # big.LITTLE with only the big core protected (the LITTLE core is
    # assumed to run trusted, sandbox-free work).
    "biglittle-asym": {
        "num_cores": 2,
        "cores": [_core(_BIG_CORE), _core(_LITTLE_CORE,
                                          mode="unprotected")],
    },
    # Two identical big cores, only core 0 protected — the asymmetric-
    # protection threat scenario of the cross-scheme attack matrix.
    "asym-protect": {
        "num_cores": 2,
        "private_l2": _BIG_PRIVATE_L2,
        "cores": [_core(_BIG_CORE), _core(_BIG_CORE, mode="unprotected")],
    },
    # The (insecure) filter-invalidate ablation: a homogeneous 2-core
    # MuonTrap machine whose invalidation multicast is scoped by the snoop
    # filter, quantifying the paper's timing-invariance cost.
    "scoped-invalidate": {
        "num_cores": 2,
        "private_l2": _BIG_PRIVATE_L2,
        "protection": {"insecure_scoped_invalidate": True},
    },
}


def machine_names() -> List[str]:
    return sorted(MACHINE_PRESETS)


def get_machine(name: str) -> SystemConfig:
    """Resolve a named machine preset to its system configuration."""
    if name not in MACHINE_PRESETS:
        raise KeyError(f"unknown machine preset: {name!r} "
                       f"(known: {', '.join(machine_names())})")
    return machine_from_dict(MACHINE_PRESETS[name])


def get_mix(name: str) -> MixProfile:
    if name not in MIX_PROFILES:
        raise KeyError(f"unknown mix: {name!r}")
    return MIX_PROFILES[name]


def generate_mix(mix: MixProfile, instructions: int,
                 seed: int = 0) -> WorkloadTraces:
    """Generate the co-run workload for one mix.

    Each constituent is generated through :func:`generate_workload` with
    the *same* arguments a single-program run of that benchmark would use,
    so the process's trace cache is shared with ordinary sweeps; the
    resulting traces' :class:`~repro.workloads.trace.PackedTrace`
    columns are re-bound by reference to the mix's process layout
    (constituent ``k`` becomes process ``k``), never copied.  Cached traces
    are shared, immutable objects, exactly as the harness treats every
    generated workload.
    """
    from repro.workloads.generator import generate_workload

    traces: List[Trace] = []
    for process_id, member in enumerate(mix.members):
        member_workload = generate_workload(mix.member_profile(process_id),
                                            instructions, seed=seed)
        for trace in member_workload:
            traces.append(Trace(trace.benchmark, len(traces), process_id,
                                trace.packed()))
    return WorkloadTraces(benchmark=mix.name, suite="mix", traces=traces)

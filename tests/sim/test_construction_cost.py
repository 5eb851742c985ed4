"""Construction cost: what one machine costs to build and to drop.

Every campaign cell builds a fresh machine, so whatever ``build_system``
allocates is paid again per cell.  The timing model keeps its tables as
plain values, and a cache line exists only while it is resident, so a
freshly built default four-core MuonTrap machine holds 762 GC-tracked
objects on CPython 3.11.  Eager per-way cache lines (39,168 of them) or an
object per predictor counter (49,152) would break the budget.

A built machine also holds no reference cycles: nothing it stores points
back to its owner, so dropping the last reference frees it at once, and a
finished cell leaves nothing for the cycle collector.
"""

import gc
import weakref

import pytest

from repro.common.params import SystemConfig, corun_system_config
from repro.harness.campaign import RunSpec, run_cell
from repro.schemes import available_schemes
from repro.sim.system import build_system
from repro.workloads.mixes import get_machine
from repro.workloads.profiles import get_profile

#: Ceiling on the GC-tracked objects a second four-core build adds.
MAX_OBJECTS = 2_000

#: (case name, workload, machine): every built-in scheme, a heterogeneous
#: preset and a co-run mix on the private-L2 topology.  (The parameter is
#: not called "benchmark", which pytest-benchmark reserves as a fixture.)
MACHINES = [
    (spec.name, "mcf", SystemConfig(mode=spec.name))
    for spec in available_schemes() if spec.builtin
] + [
    ("asym-protect", "mix-pointer-stream", get_machine("asym-protect")),
    ("corun-muontrap", "mix-pointer-stream",
     corun_system_config("muontrap", num_cores=2)),
]
MACHINE_IDS = [case[0] for case in MACHINES]


def test_four_core_build_stays_under_object_budget():
    config = SystemConfig(mode="muontrap").with_cores(4)
    build_system(config)                  # warm imports and module caches
    gc.collect()
    before = len(gc.get_objects())
    system = build_system(config)
    gc.collect()
    alive = len(gc.get_objects()) - before
    assert len(system.cores) == 4
    assert alive < MAX_OBJECTS, (
        f"a four-core build leaves {alive:,} GC-tracked objects alive "
        f"(budget {MAX_OBJECTS:,})")


@pytest.fixture
def collector_disabled():
    """Run the test with the cycle collector off, starting from no garbage."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("name, workload_name, config", MACHINES,
                         ids=MACHINE_IDS)
def test_a_dropped_machine_is_freed_by_reference_counting(
        name, workload_name, config, collector_disabled):
    cores = max(config.num_cores, get_profile(workload_name).num_threads)
    system = build_system(config.with_cores(cores))
    memory_system = weakref.ref(system.memory_system)
    hierarchy = weakref.ref(system.memory_system.hierarchy)
    del system
    assert memory_system() is None, "the memory system is in a cycle"
    assert hierarchy() is None, "the hierarchy is in a cycle"


@pytest.mark.parametrize("name, workload_name, config", MACHINES,
                         ids=MACHINE_IDS)
def test_a_finished_cell_leaves_no_cyclic_garbage(
        name, workload_name, config, collector_disabled):
    spec = RunSpec(profile=get_profile(workload_name), label=name,
                   config=config, instructions=600, seed=7)
    run_cell(spec)
    assert gc.collect() == 0

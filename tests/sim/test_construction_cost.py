"""Construction cost: the objects one ``build_system`` leaves alive.

Every campaign cell builds a fresh machine, so whatever ``build_system``
allocates is paid again per cell.  The timing model keeps its tables as
plain values, so the default four-core MuonTrap machine holds about 47k
GC-tracked objects on CPython 3.11, most of them cache lines.  An object
per predictor counter (49,152 of them) would break the budget.
"""

import gc

from repro.common.params import SystemConfig
from repro.sim.system import build_system

#: Ceiling on the GC-tracked objects a second four-core build adds.
MAX_OBJECTS = 60_000


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

"""Zero cost when disabled: an untraced run does no telemetry work.

:mod:`repro.telemetry` promises that its hook points cost (next to)
nothing while no tracer is installed.  Wall-clock is too noisy to hold a
2% budget on a shared host, so this gate counts calls instead: a
seed-pinned ``Simulator.run`` of each pinned cell runs under cProfile,
and the number of calls it makes may exceed the pinned count by at most
2%.  It counts every call into a ``repro`` function, and every call a
``repro`` function makes into code compiled from a string: the
generated ``__init__`` of a dataclass and ``__new__`` of a named tuple.
So an object built per access counts as the call it costs.  The counts
repeat exactly from run to run, so per-op or per-access work added to
the disabled path trips the gate at once.  The cells are single-core mcf under five schemes, and a two-core
co-run under MuonTrap and the unprotected baseline: single-core snoops
are always filtered, so only the co-run pins real peer snoops, the
private L2s and downgrades.

Comprehension frames are not counted: Python 3.12 inlines list, dict and
set comprehensions into their enclosing function, so counting them would
make the pins depend on the interpreter version.  The calls they make
into string-compiled code are counted, since 3.12 charges those to the
enclosing function.  Refresh the pins after
an intentional change with::

    PYTHONPATH=src python -m pytest tests/telemetry/test_disabled_cost.py --update-golden
"""

import cProfile
import json
import os
from pathlib import Path
from typing import Callable

import pytest

import repro
from repro.common.params import SystemConfig, corun_system_config
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.telemetry.tracer import active_tracer
from repro.workloads.generator import cached_workload, generate_workload
from repro.workloads.profiles import get_profile

PINS = Path(__file__).with_name("disabled_call_counts.json")
#: The five schemes of Figures 3 and 4's acceptance matrix.
SCHEMES = ["unprotected", "insecure-l0", "muontrap", "invisispec-spectre",
           "stt-spectre"]
#: Pinned cell name -> (workload, machine).
CELLS = {
    **{scheme: ("mcf", SystemConfig(mode=scheme)) for scheme in SCHEMES},
    **{f"corun-{scheme}": ("mix-pointer-stream",
                           corun_system_config(scheme, num_cores=2))
       for scheme in ("muontrap", "unprotected")},
}
INSTRUCTIONS = 2000
SEED = 1234
#: Allowed growth of a cell's call count over its pin.
CEILING = 0.02

PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep
INLINED_FRAMES = {"<listcomp>", "<dictcomp>", "<setcomp>"}
#: The file name of code compiled from a string, as dataclass and named
#: tuple constructors are.
GENERATED = "<string>"


def repro_calls(workload_name: str, machine: SystemConfig) -> int:
    """Calls into ``repro`` functions, and from them into string-compiled
    code, made by one untraced run.

    The trace cache is emptied first, so the trace is fresh and
    unplanned: a cached one may already carry the plan that run() builds,
    and the count would depend on which tests ran first.
    """
    profile = get_profile(workload_name)
    config = machine.with_cores(max(machine.num_cores, profile.num_threads))
    cached_workload.cache_clear()
    workload = generate_workload(profile, INSTRUCTIONS, seed=SEED)
    simulator = Simulator(build_system(config, seed=SEED))
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.run(workload, warmup_fraction=0.35)
    profiler.disable()
    return counted_calls(profiler, lambda filename: filename == GENERATED)


def counted_calls(profiler: cProfile.Profile,
                  counts_callee: Callable[[str], bool]) -> int:
    """Calls into ``repro`` functions, plus the calls they make into
    Python code outside ``repro`` whose file name ``counts_callee``
    accepts."""
    calls = 0
    for entry in profiler.getstats():
        if (isinstance(entry.code, str)
                or not entry.code.co_filename.startswith(PACKAGE_DIR)):
            continue
        if entry.code.co_name not in INLINED_FRAMES:
            calls += entry.callcount
        calls += sum(sub.callcount for sub in entry.calls or ()
                     if not isinstance(sub.code, str)
                     and not sub.code.co_filename.startswith(PACKAGE_DIR)
                     and counts_callee(sub.code.co_filename))
    return calls


def test_untraced_runs_stay_within_pinned_call_counts(update_golden):
    assert active_tracer() is None, "the gate measures the untraced path"
    counts = {name: repro_calls(*cell) for name, cell in CELLS.items()}
    if update_golden:
        PINS.write_text(json.dumps(counts, indent=2) + "\n")
        pytest.skip("call-count pins rewritten")
    pins = json.loads(PINS.read_text())
    over = [f"{name}: {counts[name]:,} calls, pinned {pins[name]:,} "
            f"({counts[name] / pins[name] - 1:+.2%})"
            for name in CELLS
            if counts[name] > pins[name] * (1 + CEILING)]
    assert not over, (
        f"untraced runs make over {CEILING:.0%} more calls than pinned:\n  "
        + "\n  ".join(over) + "\nif intentional, refresh with "
        f"`pytest {__file__} --update-golden`")

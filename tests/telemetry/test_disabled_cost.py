"""Zero cost when disabled: an untraced run does no telemetry work.

:mod:`repro.telemetry` promises that its hook points cost (next to)
nothing while no tracer is installed.  Wall-clock is too noisy to hold a
2% budget on a shared host, so this gate counts calls instead: a
seed-pinned ``Simulator.run`` under each of five schemes runs under
cProfile, and the number of calls into ``repro`` functions may exceed
the pinned count by at most 2%.  The counts repeat exactly from run to
run, so per-op or per-access work added to the disabled path trips the
gate at once.

Comprehension frames are not counted: Python 3.12 inlines list, dict and
set comprehensions into their enclosing function, so counting them would
make the pins depend on the interpreter version.  Refresh the pins after
an intentional change with::

    PYTHONPATH=src python -m pytest tests/telemetry/test_disabled_cost.py --update-golden
"""

import cProfile
import json
import os
from pathlib import Path

import pytest

import repro
from repro.common.params import SystemConfig
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.telemetry.tracer import active_tracer
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import get_profile

PINS = Path(__file__).with_name("disabled_call_counts.json")
#: The five schemes of Figures 3 and 4's acceptance matrix.
SCHEMES = ["unprotected", "insecure-l0", "muontrap", "invisispec-spectre",
           "stt-spectre"]
BENCHMARK = "mcf"
INSTRUCTIONS = 2000
SEED = 1234
#: Allowed growth of a scheme's call count over its pin.
CEILING = 0.02

PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep
INLINED_FRAMES = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def repro_calls(scheme: str) -> int:
    """Calls into ``repro`` functions made by one untraced run."""
    profile = get_profile(BENCHMARK)
    config = SystemConfig(mode=scheme).with_cores(max(1, profile.num_threads))
    # A fresh, unplanned trace: a cached one may already carry the plan
    # that run() builds, so the count would depend on which tests ran first.
    workload = TraceGenerator(profile, seed=SEED).generate(INSTRUCTIONS)
    simulator = Simulator(build_system(config, seed=SEED))
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.run(workload, warmup_fraction=0.35)
    profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str)
               and entry.code.co_filename.startswith(PACKAGE_DIR)
               and entry.code.co_name not in INLINED_FRAMES)


def test_untraced_runs_stay_within_pinned_call_counts(update_golden):
    assert active_tracer() is None, "the gate measures the untraced path"
    counts = {scheme: repro_calls(scheme) for scheme in SCHEMES}
    if update_golden:
        PINS.write_text(json.dumps(counts, indent=2) + "\n")
        pytest.skip("call-count pins rewritten")
    pins = json.loads(PINS.read_text())
    over = [f"{scheme}: {counts[scheme]:,} calls, pinned {pins[scheme]:,} "
            f"({counts[scheme] / pins[scheme] - 1:+.2%})"
            for scheme in SCHEMES
            if counts[scheme] > pins[scheme] * (1 + CEILING)]
    assert not over, (
        f"untraced runs make over {CEILING:.0%} more calls than pinned:\n  "
        + "\n  ".join(over) + "\nif intentional, refresh with "
        f"`pytest {__file__} --update-golden`")

"""Generation cost: pinned call counts of fresh trace generation.

Every cold cell, cold service job and fresh process generates its traces
before it simulates anything, so per-op work added to the generator slows
them all.  Wall-clock is too noisy to gate on a shared host, so, as
``tests/telemetry/test_disabled_cost.py`` does for ``Simulator.run``, this
gate counts calls: one ``generate_workload`` of each pinned workload runs
under cProfile on an empty trace cache, so it generates, and its count may
exceed the pin by at most 2%.  The rule is that test's, widened to every
call a ``repro`` function makes into Python code outside ``repro``:
besides string-compiled constructors, that counts the ``random.Random``
methods and ``Enum.__hash__`` a generator may call per op.  The counts
repeat exactly from run to run.  Refresh the pins after an intentional
change with::

    PYTHONPATH=src python -m pytest tests/workloads/test_generation_cost.py --update-golden
"""

import cProfile
import json
from pathlib import Path

import pytest

from repro.workloads.generator import cached_workload, generate_workload
from repro.workloads.profiles import get_profile
from tests.telemetry.test_disabled_cost import CEILING, counted_calls

PINS = Path(__file__).with_name("generation_call_counts.json")
#: Single-threaded SPEC, four-threaded Parsec and a two-program co-run mix.
WORKLOADS = ["mcf", "canneal", "mix-pointer-stream"]
INSTRUCTIONS = 2000
SEED = 1234


def generation_calls(name: str) -> int:
    profile = get_profile(name)
    cached_workload.cache_clear()
    profiler = cProfile.Profile()
    profiler.enable()
    generate_workload(profile, INSTRUCTIONS, seed=SEED)
    profiler.disable()
    return counted_calls(profiler, lambda filename: True)


def test_generation_stays_within_pinned_call_counts(update_golden):
    counts = {name: generation_calls(name) for name in WORKLOADS}
    cached_workload.cache_clear()
    if update_golden:
        PINS.write_text(json.dumps(counts, indent=2) + "\n")
        pytest.skip("generation call-count pins rewritten")
    pins = json.loads(PINS.read_text())
    over = [f"{name}: {counts[name]:,} calls, pinned {pins[name]:,} "
            f"({counts[name] / pins[name] - 1:+.2%})"
            for name in WORKLOADS
            if counts[name] > pins[name] * (1 + CEILING)]
    assert not over, (
        f"generation makes over {CEILING:.0%} more calls than pinned:\n  "
        + "\n  ".join(over) + "\nif intentional, refresh with "
        f"`pytest {__file__} --update-golden`")

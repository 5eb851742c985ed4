"""The memory a generated trace holds.

A generated trace is columns of ints, and the generator shares every
distinct code address of a thread (pc, branch target or wrong-path
fetch) as one int object.  These tests pin both, and bound the bytes a
trace holds per instruction, so that a per-op object or a per-op copy of
a pc shows up here before it shows up as peak RSS.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.cpu.instructions import WP_INSTRUCTION
from repro.workloads.generator import CODE_BASE, TraceGenerator
from repro.workloads.profiles import get_profile
from repro.workloads.trace import ABSENT

#: A generated mcf trace held 188 bytes per instruction while each
#: wrong-path access was an object and each pc its own int, and holds
#: about 113 now.
BYTES_PER_INSTRUCTION = 140


def code_addresses(packed) -> list:
    """Every code address of a packed trace: its pcs, its branch targets
    and its wrong-path fetches."""
    addresses = list(packed.pcs)
    addresses += (target for target in packed.targets if target != ABSENT)
    for wrong_path in packed.wrong_paths:
        addresses += (address for address, code
                      in zip(wrong_path[::2], wrong_path[1::2])
                      if code & WP_INSTRUCTION)
    return addresses


@pytest.mark.parametrize("name, instructions, seed, overrides", [
    ("mcf", 8000, 1234, {}),
    ("canneal", 2000, 1234, {}),
    # Syscalls here put pcs past the scaled code footprint.
    ("gcc", 2000, 3, {"syscall_rate": 0.3, "branch_fraction": 0.0}),
])
def test_each_code_address_is_one_int_object(name, instructions, seed,
                                             overrides):
    profile = replace(get_profile(name), **overrides)
    footprint = profile.scaled_for_sample(instructions) \
        .instruction_footprint_bytes
    for trace in TraceGenerator(profile, seed=seed).generate(instructions):
        addresses = code_addresses(trace.packed())
        assert len({id(address) for address in addresses}) \
            == len(set(addresses))
        if name == "gcc":
            assert max(trace.packed().pcs) >= CODE_BASE + footprint


def test_a_generated_trace_holds_few_bytes_per_instruction():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload = TraceGenerator(get_profile("mcf"), seed=1234).generate(
            20_000)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_instruction = held / workload.total_instructions()
    assert per_instruction <= BYTES_PER_INSTRUCTION, (
        f"{per_instruction:.1f} bytes per instruction")

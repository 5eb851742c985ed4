"""Property test: chunked ``run_packed`` calls ≡ one ``execute_op`` per op.

The simulator interleaves cores by calling ``run_packed`` on chunks of a
trace, so every piece of timing state — the fetch line, the dispatch and
commit cycles, the ROB and load/store queues, register ready times and
taints, the last branch resolve — must carry from one call to the next.
This test draws op sequences the generator cannot produce — same-line ALU
runs of up to 128 ops (a repeated tight loop body) that fill a 16-entry
ROB, line crossings, loads, stores and branches with forced
mispredictions and wrong-path accesses — and runs each through
``run_packed`` split at random chunk boundaries and, on a second
identically seeded machine, through one ``execute_op`` call per op, the
finest chunking there is.  Clock, core result, the ROB and load/store
queue contents, every register's ready time and taint, and the full
statistics tree must match.

The schemes cover the loop's distinct paths: unprotected (no
``commit_fetch`` override, so the no-op upcall is skipped), STT-Spectre
(taint propagation across call boundaries) and MuonTrap (overrides
``commit_fetch``, so every op makes the call).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import (
    BranchPredictorConfig,
    PipelineConfig,
    SystemConfig,
)
from repro.cpu.instructions import MicroOp, OpKind, WrongPathAccess
from repro.sim.system import build_system
from repro.workloads.trace import PackedTrace

SCHEMES = ["unprotected", "stt-spectre", "muontrap"]

SEED = 1234
LINE = 64
REGISTERS = 8
CODE_BASE = 0x40_0000
BRANCH_TARGET = 0x48_0000

#: Data addresses: neighbouring lines of one page plus lines on far pages,
#: so loads and stores both hit and miss (caches and TLB).
ADDRESSES = ([0x20_0000 + LINE * i for i in range(8)]
             + [0x80_0000 + 4096 * i for i in range(4)])

_register = st.integers(min_value=0, max_value=REGISTERS - 1)
_address = st.sampled_from(ADDRESSES)

_simple_op = st.tuples(
    st.sampled_from([OpKind.INT_ALU, OpKind.FP_ALU, OpKind.MUL_DIV,
                     OpKind.NOP]),
    st.lists(_register, max_size=2),                # sources
    st.one_of(st.none(), _register),                # destination
    st.integers(min_value=1, max_value=4),          # latency
)

_wrong_path = st.builds(
    WrongPathAccess,
    address=_address,
    is_store=st.booleans(),
    is_instruction=st.booleans(),
    issue_offset=st.integers(min_value=1, max_value=20),
)

_segment = st.one_of(
    # A loop body of simple ops, repeated: runs of up to 128 ops.
    st.tuples(st.just("run"), st.lists(_simple_op, min_size=1, max_size=8),
              st.integers(min_value=2, max_value=16)),
    st.tuples(st.just("cross"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("load"), _address, st.lists(_register, max_size=1),
              _register),
    st.tuples(st.just("store"), _address, st.lists(_register, max_size=2)),
    st.tuples(st.just("branch"), st.lists(_register, max_size=1),
              st.booleans(), st.sampled_from([None, True, False]),
              st.lists(_wrong_path, max_size=3)),
)


def _materialise(segments):
    """Lay the segments out as ops; pcs wrap within the current line."""
    ops = []
    line = CODE_BASE
    offset = 0

    def next_pc():
        nonlocal offset
        pc = line + offset
        offset = (offset + 4) % LINE
        return pc

    for segment in segments:
        kind = segment[0]
        if kind == "run":
            _, body, repeats = segment
            for op_kind, srcs, dst, latency in body * repeats:
                ops.append(MicroOp(kind=op_kind, pc=next_pc(),
                                   src_regs=tuple(srcs), dst_reg=dst,
                                   execution_latency=latency))
        elif kind == "cross":
            line += LINE * segment[1]
            offset = 0
        elif kind == "load":
            _, address, srcs, dst = segment
            ops.append(MicroOp(kind=OpKind.LOAD, pc=next_pc(),
                               address=address, src_regs=tuple(srcs),
                               dst_reg=dst))
        elif kind == "store":
            _, address, srcs = segment
            ops.append(MicroOp(kind=OpKind.STORE, pc=next_pc(),
                               address=address, src_regs=tuple(srcs)))
        else:
            _, srcs, taken, force, wrong_path = segment
            ops.append(MicroOp(kind=OpKind.BRANCH, pc=next_pc(),
                               src_regs=tuple(srcs), taken=taken,
                               target=BRANCH_TARGET,
                               force_mispredict=force,
                               wrong_path=list(wrong_path)))
    return ops


def _core(scheme):
    """A small machine: a 16-entry ROB and 4-entry load/store queues fill
    up inside one long run, and small tables keep each build cheap."""
    base = SystemConfig(mode=scheme)
    config = replace(
        base,
        core=PipelineConfig(
            rob_entries=16, lq_entries=4, sq_entries=4,
            branch_predictor=BranchPredictorConfig(
                local_entries=64, global_entries=256, chooser_entries=64,
                btb_entries=64)),
        l2=replace(base.l2, size_bytes=64 * 1024))
    system = build_system(config, seed=SEED)
    return system, system.core(0)


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(segments=st.lists(_segment, min_size=2, max_size=10), data=st.data())
def test_chunked_run_packed_matches_per_op(scheme, segments, data):
    ops = _materialise(segments)
    if not ops:
        return
    packed = PackedTrace.pack(ops)
    cuts = data.draw(st.lists(st.integers(min_value=1,
                                          max_value=len(ops)),
                              max_size=6), label="cuts")
    bounds = sorted({0, len(ops), *cuts})

    packed_system, packed_core = _core(scheme)
    clock = None
    for start, end in zip(bounds, bounds[1:]):
        clock = packed_core.run_packed(packed, start, end)

    per_op_system, per_op_core = _core(scheme)
    for op in packed.unpack():
        per_op_core.execute_op(op)

    assert clock == per_op_core.current_cycle
    assert packed_core.result() == per_op_core.result()
    # The windows' in-flight commit times, so a lost stall shows here too.
    assert ((packed_core._rob, packed_core._load_queue,
             packed_core._store_queue)
            == (per_op_core._rob, per_op_core._load_queue,
                per_op_core._store_queue))
    for register in range(REGISTERS):
        assert (packed_core.register_ready_time(register)
                == per_op_core.register_ready_time(register)), register
    # STT taint is register state too; a lost taint only shows in timing
    # once a later transmitter reads the register.
    assert packed_core._reg_taint == per_op_core._reg_taint
    assert packed_system.stats.as_dict() == per_op_system.stats.as_dict()

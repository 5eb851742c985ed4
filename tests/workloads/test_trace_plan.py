"""Tests for the core's trace plan (batchable-run segmentation).

The plan is derived data: ``run_end`` segments a packed trace into maximal
runs of simple ops sharing one instruction-cache line.  These tests pin
the segmentation invariants (property-tested round-trip against the
original op sequence), the empty/single-op edge cases, and the rule that
a plan is built once per trace and line size, and stays with a cached
trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instructions import F_TRANSMITTER, KIND_FLAGS, MicroOp, OpKind
from repro.telemetry import Tracer, tracing
from repro.workloads.generator import cached_workload, generate_workload
from repro.workloads.profiles import get_profile
from repro.workloads.trace import (
    COMPLEX_MASK,
    DEFAULT_LINE_SIZE,
    PackedTrace,
)

LINE = DEFAULT_LINE_SIZE


def _alu(pc, srcs=(), dst=-1, latency=1):
    return MicroOp(kind=OpKind.INT_ALU, pc=pc,
                   src_regs=tuple(srcs),
                   dst_reg=dst if dst >= 0 else None,
                   execution_latency=latency)


def _load(pc, address=0x10_0000, dst=1):
    return MicroOp(kind=OpKind.LOAD, pc=pc, address=address, dst_reg=dst)


# -- hypothesis op-sequence strategy ------------------------------------------

_op_entry = st.tuples(
    st.sampled_from(["alu", "fp", "nop", "load", "store", "branch"]),
    st.integers(min_value=0, max_value=3),    # pc stride quirk
    st.integers(min_value=1, max_value=4),    # latency
    st.integers(min_value=0, max_value=7),    # src register
    st.integers(min_value=0, max_value=7),    # dst register
)


def _materialise(entries):
    """Turn strategy tuples into a MicroOp list with varied pc placement."""
    ops = []
    pc = 0x1000
    for kind, stride, latency, src, dst in entries:
        if stride == 3:
            pc += LINE          # force a line crossing
        if kind == "alu":
            ops.append(MicroOp(kind=OpKind.INT_ALU, pc=pc, src_regs=(src,),
                               dst_reg=dst, execution_latency=latency))
        elif kind == "fp":
            ops.append(MicroOp(kind=OpKind.FP_ALU, pc=pc, dst_reg=dst,
                               execution_latency=latency))
        elif kind == "nop":
            ops.append(MicroOp(kind=OpKind.NOP, pc=pc))
        elif kind == "load":
            ops.append(MicroOp(kind=OpKind.LOAD, pc=pc,
                               address=0x20_0000 + 64 * src, dst_reg=dst))
        elif kind == "store":
            ops.append(MicroOp(kind=OpKind.STORE, pc=pc,
                               address=0x20_0000 + 64 * src,
                               src_regs=(src,)))
        else:
            ops.append(MicroOp(kind=OpKind.BRANCH, pc=pc, taken=bool(dst & 1),
                               target=0x3000))
        pc += 4
    return ops


class TestSegmentation:
    def test_empty_trace_has_empty_plan(self):
        packed = PackedTrace.pack([])
        plan = packed.plan(LINE)
        assert packed.length == 0
        assert plan.run_end == []

    def test_single_simple_op_is_a_run_of_one(self):
        packed = PackedTrace.pack([_alu(0x1000, dst=1)])
        assert packed.plan(LINE).run_end == [1]

    def test_single_complex_op_is_not_a_run(self):
        packed = PackedTrace.pack([_load(0x1000)])
        assert packed.plan(LINE).run_end == [0]

    def test_runs_break_at_line_crossings(self):
        # Four ALU ops, the third on the next cache line: two runs.
        ops = [_alu(LINE - 8, dst=1), _alu(LINE - 4, dst=2),
               _alu(LINE, dst=3), _alu(LINE + 4, dst=4)]
        assert PackedTrace.pack(ops).plan(LINE).run_end == [2, 2, 4, 4]

    def test_transmitters_are_never_batched(self):
        # The batched path in run_packed applies no STT issue delay.
        assert all(flags & COMPLEX_MASK for flags in KIND_FLAGS.values()
                   if flags & F_TRANSMITTER)

    def test_runs_break_at_complex_ops(self):
        ops = [_alu(0x1000, dst=1), _load(0x1004), _alu(0x1008, dst=2),
               _alu(0x100C, dst=3)]
        assert PackedTrace.pack(ops).plan(LINE).run_end == [1, 1, 4, 4]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_op_entry, max_size=80))
    def test_segmentation_round_trip(self, entries):
        """Walking the segments reconstructs the op sequence exactly.

        The segments must tile ``[0, n)`` without gaps or overlap (so the
        concatenation of per-segment op slices equals the original
        sequence), every batched segment must be entirely simple ops on
        one line, every member must record the batch's end, and every
        batch must be maximal.
        """
        ops = _materialise(entries)
        packed = PackedTrace.pack(ops)
        plan = packed.plan(LINE)
        n = packed.length
        assert len(plan.run_end) == n
        covered = []
        index = 0
        while index < n:
            stop = plan.run_end[index]
            if stop > index:          # a batch of simple same-line ops
                line = packed.pcs[index] // LINE
                for i in range(index, stop):
                    assert not packed.flags[i] & COMPLEX_MASK
                    assert packed.pcs[i] // LINE == line
                    # An engine call starting mid-batch (a chunk
                    # boundary) still finds where the batch stops.
                    assert plan.run_end[i] == stop
                # Maximality: the batch cannot be extended rightward.
                assert stop == n or packed.flags[stop] & COMPLEX_MASK \
                    or packed.pcs[stop] // LINE != line
                covered.extend(range(index, stop))
                index = stop
            else:                     # a complex op, executed scalar
                assert packed.flags[index] & COMPLEX_MASK
                covered.append(index)
                index += 1
        assert covered == list(range(n))
        # The concatenation of segment op slices is the original sequence.
        assert packed.unpack() == ops


def _long_run(count, line_base=0x40_000):
    """``count`` ALU ops on one line: dependency chain through r1."""
    ops = [MicroOp(kind=OpKind.INT_ALU, pc=line_base, dst_reg=1)]
    ops += [MicroOp(kind=OpKind.INT_ALU, pc=line_base, src_regs=(1,),
                    dst_reg=1, execution_latency=2)
            for _ in range(count - 1)]
    return ops


class TestPlanLifecycle:
    def test_plans_are_cached_per_line_size(self):
        packed = PackedTrace.pack(_long_run(8))
        assert packed.plan(64) is packed.plan(64)
        assert packed.plan(64) is not packed.plan(32)

    def test_a_cached_trace_keeps_its_plans(self):
        """The second run of a cached workload reuses the first's plan."""
        cached_workload.cache_clear()
        try:
            first = generate_workload(get_profile("povray"), 300, seed=3)
            plan = first.thread(0).packed().plan(LINE)
            again = generate_workload(get_profile("povray"), 300, seed=3)
            assert again.thread(0).packed().plan(LINE) is plan
        finally:
            cached_workload.cache_clear()


class TestEmptyAndSingleOpExecution:
    """Engine-level pinning: degenerate traces return the entry clock,
    batched or not (an active tracer that records nothing turns batching
    off)."""

    def _core(self):
        config = SystemConfig()
        return OutOfOrderCore(0, config, UnprotectedMemorySystem(config))

    def test_empty_trace_is_a_no_op_on_every_engine(self):
        empty = PackedTrace.pack([])
        core = self._core()
        # Establish a non-trivial clock first, then run nothing.
        core.run_packed(PackedTrace.pack(_long_run(4)))
        before = core.result()
        assert core.run_packed(empty) == before.cycles
        assert core.run(empty.unpack()) == before      # micro-ops, packed
        with tracing(Tracer(categories=())):
            assert core.run_packed(empty) == before.cycles

    def test_single_op_trace_identical_across_engines(self):
        single = PackedTrace.pack([_alu(0x1000, srcs=(1,), dst=2,
                                        latency=3)])
        packed = self._core()
        clock = packed.run_packed(single)
        per_op = self._core()
        with tracing(Tracer(categories=())):
            per_op.execute_op(single.op(0))
        assert (clock, packed.result()) \
            == (per_op._last_commit_time, per_op.result())
        assert packed.result().committed_instructions == 1

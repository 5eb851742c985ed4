"""Tests for the packed (struct-of-arrays) trace representation."""

import random

import pytest

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instructions import (
    F_BRANCH,
    F_LOAD,
    F_STORE,
    F_TAKEN,
    F_TRANSMITTER,
    MicroOp,
    OpKind,
    WrongPathAccess,
)
from repro.telemetry.tracer import Tracer, tracing
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import get_profile
from repro.workloads.trace import PackedTrace, Trace


def _varied_ops():
    return [
        MicroOp(kind=OpKind.LOAD, pc=0x1000, address=0x10_0000, dst_reg=3),
        MicroOp(kind=OpKind.STORE, pc=0x1004, address=0x10_0040,
                src_regs=(3,)),
        MicroOp(kind=OpKind.BRANCH, pc=0x1008, taken=True, target=0x2000,
                force_mispredict=True,
                wrong_path=[WrongPathAccess(address=0x20_0000),
                            WrongPathAccess(address=0x20_0040, is_store=True),
                            WrongPathAccess(address=0x3000,
                                            is_instruction=True)]),
        MicroOp(kind=OpKind.INT_ALU, pc=0x100C, src_regs=(3, 7), dst_reg=8),
        MicroOp(kind=OpKind.FP_ALU, pc=0x1010, dst_reg=9,
                execution_latency=5),
        MicroOp(kind=OpKind.SYSCALL, pc=0x1014, is_context_switch=True),
        MicroOp(kind=OpKind.NOP, pc=0x1018, is_sandbox_entry=True),
        MicroOp(kind=OpKind.BRANCH, pc=0x101C, taken=False, target=0x1000,
                force_mispredict=False),
        MicroOp(kind=OpKind.MUL_DIV, pc=0x1020, dst_reg=10, sequence=42),
    ]


class TestPackUnpackRoundTrip:
    def test_lossless_round_trip(self):
        ops = _varied_ops()
        packed = PackedTrace.pack(ops)
        assert len(packed) == len(ops)
        assert packed.unpack() == ops

    def test_single_op_materialisation(self):
        ops = _varied_ops()
        packed = PackedTrace.pack(ops)
        for index, op in enumerate(ops):
            assert packed.op(index) == op

    def test_generated_trace_round_trips(self):
        trace = TraceGenerator(get_profile("mcf"), seed=3).generate_single(400)
        assert trace.packed().unpack() == trace.ops
        # Generated ops all have sequence 0: neither form keeps the column.
        assert trace.packed().sequences is None
        assert PackedTrace.pack(trace.ops).sequences is None

    def test_wrong_paths_are_flat_int_pairs(self):
        packed = PackedTrace.pack(_varied_ops())
        assert packed.wrong_paths[2] == (0x20_0000, 1 << 2,
                                         0x20_0040, 1 << 2 | 2,
                                         0x3000, 1 << 2 | 1)
        assert packed.wrong_paths[0] == ()


class TestPackedFlags:
    def test_kind_flags_precomputed(self):
        packed = PackedTrace.pack(_varied_ops())
        assert packed.flags[0] & F_LOAD
        assert packed.flags[0] & F_TRANSMITTER
        assert packed.flags[1] & F_STORE
        assert packed.flags[1] & F_TRANSMITTER
        assert packed.flags[2] & F_BRANCH
        assert packed.flags[2] & F_TAKEN
        assert not packed.flags[3] & (F_LOAD | F_STORE | F_BRANCH)

    def test_flags_match_enum_properties(self):
        trace = TraceGenerator(get_profile("gcc"), seed=5).generate_single(300)
        packed = trace.packed()
        for index, op in enumerate(trace.ops):
            flags = packed.flags[index]
            assert bool(flags & F_LOAD) == (op.kind is OpKind.LOAD)
            assert bool(flags & F_STORE) == (op.kind is OpKind.STORE)
            assert bool(flags & F_BRANCH) == (op.kind is OpKind.BRANCH)
            assert bool(flags & F_TRANSMITTER) == op.kind.is_transmitter


def _random_op(rng: random.Random, sequence: int) -> MicroOp:
    """One random micro-op drawing every field from its full domain."""
    kind = rng.choice(list(OpKind))
    pc = rng.randrange(0, 1 << 32, 4)
    address = (rng.randrange(0, 1 << 40, 1)
               if kind.is_memory or rng.random() < 0.1 else None)
    src_regs = tuple(rng.randrange(0, 256)
                     for _ in range(rng.randrange(0, 4)))
    dst_reg = rng.randrange(0, 256) if rng.random() < 0.5 else None
    latency = rng.randrange(0, 12) if rng.random() < 0.5 else None
    taken = rng.random() < 0.5
    target = rng.randrange(0, 1 << 32, 4) if rng.random() < 0.5 else None
    force = rng.choice([None, True, False])
    wrong_path = [
        WrongPathAccess(address=rng.randrange(0, 1 << 40),
                        is_store=rng.random() < 0.5,
                        is_instruction=rng.random() < 0.5,
                        # At dispatch, inside a resolve window, or past any.
                        issue_offset=rng.choice((0, rng.randrange(1, 8),
                                                 rng.randrange(1 << 20,
                                                               1 << 40))))
        for _ in range(rng.randrange(0, 4))
    ]
    return MicroOp(kind=kind, pc=pc, sequence=sequence, address=address,
                   src_regs=src_regs, dst_reg=dst_reg,
                   execution_latency=latency, taken=taken, target=target,
                   force_mispredict=force, wrong_path=wrong_path,
                   is_context_switch=rng.random() < 0.1,
                   is_sandbox_entry=rng.random() < 0.1)


class TestRandomizedRoundTrip:
    """Property tests: pack/unpack is lossless for arbitrary op streams.

    ~200 seed-pinned random cases covering every op kind, every optional
    field and every flag combination, so a future change to the packed
    layout cannot silently drop information.
    """

    CASES = 200

    def test_random_ops_draw_every_wrong_path_encoding(self):
        rng = random.Random(0xC0DE)
        accesses = [access for sequence in range(200)
                    for access in _random_op(rng, sequence).wrong_path]
        assert any(access.is_store and access.is_instruction
                   for access in accesses)
        assert any(access.issue_offset == 0 for access in accesses)
        assert any(access.issue_offset >= 1 << 20 for access in accesses)

    @pytest.mark.parametrize("case", range(CASES))
    def test_round_trip_is_lossless(self, case):
        rng = random.Random(0xC0DE + case)
        ops = [_random_op(rng, sequence)
               for sequence in range(rng.randrange(1, 40))]
        packed = PackedTrace.pack(ops)
        assert len(packed) == len(ops)
        restored = packed.unpack()
        assert restored == ops
        # Unpacked ops are independent copies: mutating one must not alias
        # the originals' wrong-path lists.
        for original, copy in zip(ops, restored):
            assert original.wrong_path == copy.wrong_path
            assert original.wrong_path is not copy.wrong_path or not original.wrong_path

    @pytest.mark.parametrize("case", range(0, CASES, 20))
    def test_repack_is_idempotent(self, case):
        """pack(unpack(packed)) reproduces every column exactly."""
        rng = random.Random(0xBEEF + case)
        ops = [_random_op(rng, sequence)
               for sequence in range(rng.randrange(1, 40))]
        once = PackedTrace.pack(ops)
        twice = PackedTrace.pack(once.unpack())
        assert once.kinds == twice.kinds
        assert once.flags == twice.flags
        assert once.pcs == twice.pcs
        assert once.addresses == twice.addresses
        assert once.latencies == twice.latencies
        assert once.srcs == twice.srcs
        assert once.dsts == twice.dsts
        assert once.targets == twice.targets
        assert once.wrong_paths == twice.wrong_paths
        assert once.sequences == twice.sequences

    @pytest.mark.parametrize("case", range(0, CASES, 20))
    def test_single_op_materialisation_matches(self, case):
        rng = random.Random(0xF00D + case)
        ops = [_random_op(rng, sequence) for sequence in range(16)]
        packed = PackedTrace.pack(ops)
        for index, op in enumerate(ops):
            assert packed.op(index) == op


def test_traced_squash_events_carry_each_access_flags():
    """Each squashed access's trace event carries the address, store and
    fetch bools and (through its cycle) the issue offset of the
    ``WrongPathAccess`` it was packed from."""
    accesses = [WrongPathAccess(0x20_0000, False, False, 0),
                WrongPathAccess(0x20_0040, True, False, 3),
                WrongPathAccess(0x3000, False, True, 5),
                WrongPathAccess(0x20_0080, True, True, 1 << 30)]
    branch = MicroOp(kind=OpKind.BRANCH, pc=0x1000, taken=True,
                     target=0x2000, force_mispredict=True,
                     execution_latency=10, wrong_path=accesses)
    config = SystemConfig()
    core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
    tracer = Tracer(categories=("pipeline",))
    with tracing(tracer):
        core.run([branch])
    events = {name: [event for event in tracer.events if event.name == name]
              for name in ("issue", "mispredict", "squash")}
    # The branch reads no register, so it issues one cycle after dispatch
    # and resolves ten cycles later: its window is 11 issue slots.
    dispatch = events["issue"][0].cycle - 1
    window = events["mispredict"][0].cycle - dispatch
    assert window == 11
    assert [(event.address, event.detail["store"], event.detail["fetch"],
             event.cycle) for event in events["squash"]] == [
        (access.address, access.is_store, access.is_instruction,
         dispatch + min(access.issue_offset, window))
        for access in accesses]
    assert all(type(event.detail[flag]) is bool
               for event in events["squash"] for flag in ("store", "fetch"))


class TestTracePackedCache:
    def test_packed_view_is_cached(self):
        trace = Trace("demo", 0, 0, PackedTrace.pack(_varied_ops()))
        assert trace.packed() is trace.packed()
        assert trace.ops == _varied_ops()

    def test_generator_emits_packed_traces(self):
        workload = TraceGenerator(get_profile("mcf"), seed=1).generate(200)
        for trace in workload:
            assert isinstance(trace.packed(), PackedTrace)
            assert trace.packed().length == len(trace) == 200

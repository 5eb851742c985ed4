"""Micro-op representation used by the out-of-order core model.

The workload generators (:mod:`repro.workloads`) write packed trace
columns, not :class:`MicroOp` objects, and the core executes those
columns.  Micro-ops are the boundary format: attacks and tests build them
and the core packs them before it runs them, and the columns build them on
demand for inspection.  A micro-op carries its architectural
effects only to the extent the timing and security model needs: which
registers it reads and writes, which address it touches, how long its
functional unit takes, whether it is a branch and what the branch actually
does, and which *wrong-path* memory accesses the core would perform if the
branch is mispredicted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class OpKind(enum.Enum):
    """The instruction classes the timing model distinguishes."""

    INT_ALU = "int"
    FP_ALU = "fp"
    MUL_DIV = "mul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    SYSCALL = "syscall"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in (OpKind.LOAD, OpKind.STORE)

    @property
    def is_transmitter(self) -> bool:
        """Instructions STT treats as covert-channel transmitters."""
        return self in (OpKind.LOAD, OpKind.STORE)


#: Default functional-unit latencies, in cycles.
EXECUTION_LATENCY = {
    OpKind.INT_ALU: 1,
    OpKind.FP_ALU: 3,
    OpKind.MUL_DIV: 4,
    OpKind.LOAD: 0,      # memory latency comes from the memory system
    OpKind.STORE: 1,
    OpKind.BRANCH: 1,
    OpKind.SYSCALL: 1,
    OpKind.NOP: 1,
}


# Per-op flag bits used by the packed (struct-of-arrays) trace format.  The
# kind-derived bits are precomputed once per OpKind in KIND_FLAGS so the hot
# simulation loop tests a bitmask instead of touching enum properties per op.
F_LOAD = 1 << 0
F_STORE = 1 << 1
F_BRANCH = 1 << 2
F_SYSCALL = 1 << 3
#: STT transmitter (covert-channel capable) instruction.
F_TRANSMITTER = 1 << 4
F_TAKEN = 1 << 5
F_CONTEXT_SWITCH = 1 << 6
F_SANDBOX_ENTRY = 1 << 7
#: ``force_mispredict`` is not None; its value is F_FORCE_MISPREDICT_VALUE.
F_FORCE_MISPREDICT = 1 << 8
F_FORCE_MISPREDICT_VALUE = 1 << 9

# A packed trace stores a branch's wrong path as one flat tuple of int
# pairs, ``(address, code, address, code, ...)``: each access's address,
# then ``issue_offset << WP_OFFSET_SHIFT`` with its WP_STORE and
# WP_INSTRUCTION bits.
WP_INSTRUCTION = 1 << 0
WP_STORE = 1 << 1
WP_OFFSET_SHIFT = 2

#: OpKind -> the flag bits implied by the kind alone.
KIND_FLAGS = {
    kind: ((F_LOAD if kind is OpKind.LOAD else 0)
           | (F_STORE if kind is OpKind.STORE else 0)
           | (F_BRANCH if kind is OpKind.BRANCH else 0)
           | (F_SYSCALL if kind is OpKind.SYSCALL else 0)
           | (F_TRANSMITTER if kind.is_transmitter else 0))
    for kind in OpKind
}


@dataclass(frozen=True, slots=True)
class WrongPathAccess:
    """A memory access the core performs down a mispredicted path.

    These are the accesses a speculative side channel is built from: they
    execute, touch the memory system, and are then squashed without ever
    committing.
    """

    address: int
    is_store: bool = False
    is_instruction: bool = False
    #: Offset (in issue slots) after the mispredicted branch dispatches.
    issue_offset: int = 1


@dataclass(slots=True)
class MicroOp:
    """One instruction of a workload trace.

    ``MicroOp`` is the boundary format: the attack programs and the unit
    tests build and inspect individual ops.  Traces are stored as the
    struct-of-arrays :class:`~repro.workloads.trace.PackedTrace` (lossless
    ``pack`` / ``unpack`` converters) so the core never allocates per
    instruction.
    """

    kind: OpKind
    pc: int
    sequence: int = 0
    address: Optional[int] = None
    src_regs: Tuple[int, ...] = ()
    dst_reg: Optional[int] = None
    execution_latency: Optional[int] = None
    # Branch-specific fields.
    taken: bool = False
    target: Optional[int] = None
    #: If set, overrides the branch predictor (used by attacks that need a
    #: deterministic misprediction); None lets the tournament predictor decide.
    force_mispredict: Optional[bool] = None
    wrong_path: List[WrongPathAccess] = field(default_factory=list)
    #: Marks a protection-domain boundary the core must honour at commit.
    is_context_switch: bool = False
    is_sandbox_entry: bool = False

    def __post_init__(self) -> None:
        if self.kind.is_memory and self.address is None:
            raise ValueError(f"{self.kind.value} micro-op requires an address")
        if self.execution_latency is None:
            self.execution_latency = EXECUTION_LATENCY[self.kind]


def summarize_trace(ops: List[MicroOp]) -> dict:
    """Per-kind instruction counts (handy in tests and workload validation)."""
    counts = {kind: 0 for kind in OpKind}
    for op in ops:
        counts[op.kind] += 1
    total = len(ops)
    return {
        "total": total,
        "loads": counts[OpKind.LOAD],
        "stores": counts[OpKind.STORE],
        "branches": counts[OpKind.BRANCH],
        "int_alu": counts[OpKind.INT_ALU],
        "fp_alu": counts[OpKind.FP_ALU],
        "mul_div": counts[OpKind.MUL_DIV],
        "syscalls": counts[OpKind.SYSCALL],
        "load_fraction": counts[OpKind.LOAD] / total if total else 0.0,
        "store_fraction": counts[OpKind.STORE] / total if total else 0.0,
        "branch_fraction": counts[OpKind.BRANCH] / total if total else 0.0,
    }

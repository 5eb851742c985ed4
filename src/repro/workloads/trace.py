"""Trace containers.

A :class:`Trace` is the unit of work a core executes: an ordered instruction
stream plus the metadata the experiment harness needs (which benchmark and
thread it models, which process it belongs to).  Multi-threaded workloads
(Parsec) are represented as a :class:`WorkloadTraces` bundle with one trace
per thread, all sharing one process/address space.

A trace is stored in one form only, a :class:`PackedTrace`: parallel lists
of flag bitmasks, pcs, addresses, latencies and register ids, read by the
zero-allocation core loop.  :data:`KIND_ENCODING` is the one kind-to-column
encoding: the generator writes every op's kind code, flags and latency
from it, and :meth:`PackedTrace.pack` encodes a
:class:`~repro.cpu.instructions.MicroOp` list with it.  It folds the
``is_load/is_store/is_branch/is_transmitter`` classification into flag bits
so the hot loop never touches :class:`~repro.cpu.instructions.OpKind` enum
properties.  ``MicroOp`` objects are built only on demand, by
:meth:`PackedTrace.op` and :meth:`PackedTrace.unpack`.

``OutOfOrderCore.run_packed`` reads these columns one op at a time, and
nothing derived from them is built or kept beside them.  No trace leaves
the process that generated it: the per-process trace cache
(:func:`~repro.workloads.generator.cached_workload`) holds traces in
memory only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.cpu.instructions import (
    EXECUTION_LATENCY,
    F_CONTEXT_SWITCH,
    F_FORCE_MISPREDICT,
    F_FORCE_MISPREDICT_VALUE,
    F_SANDBOX_ENTRY,
    F_TAKEN,
    KIND_FLAGS,
    MicroOp,
    OpKind,
    summarize_trace,
)

#: Index-order list of kinds, giving each a stable small integer code.
_KIND_CODES: List[OpKind] = list(OpKind)
#: OpKind -> (kind code, kind-implied flag bits, default latency): the
#: three columns an op's kind alone decides.
KIND_ENCODING: Dict[OpKind, Tuple[int, int, int]] = {
    kind: (code, KIND_FLAGS[kind], EXECUTION_LATENCY[kind])
    for code, kind in enumerate(_KIND_CODES)}

#: Sentinel for "no address / no target / no destination register".
ABSENT = -1

#: The instruction-cache line size (``CacheConfig.line_size``'s default).
#: Only the benchmark's set-up imports it, to call :meth:`PackedTrace.plan`.
DEFAULT_LINE_SIZE = 64


class PackedTrace:
    """A struct-of-arrays instruction stream.

    Parallel plain-Python lists (one slot per op) instead of one object per
    op: the core loop reads each field with a single indexed load, all op
    classification is pre-folded into the ``flags`` bitmask, and running a
    trace allocates nothing per instruction.  Variable-size payloads
    (source-register and wrong-path tuples) are stored by reference, and
    every op without a wrong path shares the one empty tuple.
    """

    __slots__ = ("kinds", "flags", "pcs", "addresses", "latencies", "srcs",
                 "dsts", "targets", "wrong_paths", "sequences")

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.flags: List[int] = []
        self.pcs: List[int] = []
        self.addresses: List[int] = []
        self.latencies: List[int] = []
        self.srcs: List[tuple] = []
        self.dsts: List[int] = []
        self.targets: List[int] = []
        self.wrong_paths: List[tuple] = []
        self.sequences: List[int] = []

    def __len__(self) -> int:
        return len(self.flags)

    length = property(__len__)

    def plan(self, line_size: int) -> None:
        """Does nothing and returns ``None``; the core plans no trace.

        Kept only because the benchmark's set-up
        (``perfbench/scenarios.py``) calls it and its layer timer
        (``perfbench/layers.py``) wraps it; both go with this method.
        """
        return None

    @classmethod
    def pack(cls, ops: Iterable[MicroOp]) -> "PackedTrace":
        """Convert a micro-op list into the packed representation."""
        packed = cls()
        for op in ops:
            code, flags, latency = KIND_ENCODING[op.kind]
            if op.taken:
                flags |= F_TAKEN
            if op.is_context_switch:
                flags |= F_CONTEXT_SWITCH
            if op.is_sandbox_entry:
                flags |= F_SANDBOX_ENTRY
            if op.force_mispredict is not None:
                flags |= F_FORCE_MISPREDICT
                if op.force_mispredict:
                    flags |= F_FORCE_MISPREDICT_VALUE
            packed.kinds.append(code)
            packed.flags.append(flags)
            packed.pcs.append(op.pc)
            packed.addresses.append(ABSENT if op.address is None
                                    else op.address)
            packed.latencies.append(latency if op.execution_latency is None
                                    else op.execution_latency)
            packed.srcs.append(tuple(op.src_regs) if op.src_regs else ())
            packed.dsts.append(ABSENT if op.dst_reg is None else op.dst_reg)
            packed.targets.append(ABSENT if op.target is None else op.target)
            packed.wrong_paths.append(tuple(op.wrong_path) if op.wrong_path
                                      else ())
            packed.sequences.append(op.sequence)
        return packed

    def unpack(self) -> List[MicroOp]:
        """Rebuild the equivalent micro-op list (lossless inverse of pack)."""
        return [self.op(index) for index in range(self.length)]

    def op(self, index: int) -> MicroOp:
        """Materialise one op."""
        flags = self.flags[index]
        return MicroOp(
            kind=_KIND_CODES[self.kinds[index]],
            pc=self.pcs[index],
            sequence=self.sequences[index],
            address=None if self.addresses[index] == ABSENT
            else self.addresses[index],
            src_regs=self.srcs[index],
            dst_reg=None if self.dsts[index] == ABSENT else self.dsts[index],
            execution_latency=self.latencies[index],
            taken=bool(flags & F_TAKEN),
            target=None if self.targets[index] == ABSENT
            else self.targets[index],
            force_mispredict=(bool(flags & F_FORCE_MISPREDICT_VALUE)
                              if flags & F_FORCE_MISPREDICT else None),
            wrong_path=list(self.wrong_paths[index]),
            is_context_switch=bool(flags & F_CONTEXT_SWITCH),
            is_sandbox_entry=bool(flags & F_SANDBOX_ENTRY),
        )


@dataclass
class Trace:
    """One thread's instruction stream, stored as packed columns."""

    benchmark: str
    thread_id: int
    process_id: int
    columns: PackedTrace

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[MicroOp]:
        return map(self.columns.op, range(len(self.columns)))

    @property
    def ops(self) -> List[MicroOp]:
        """The trace as a fresh micro-op list, built on demand."""
        return self.columns.unpack()

    def packed(self) -> PackedTrace:
        """The struct-of-arrays columns this trace is stored as."""
        return self.columns

    def summary(self) -> Dict[str, float]:
        return summarize_trace(self.ops)


@dataclass
class WorkloadTraces:
    """All threads of one benchmark run."""

    benchmark: str
    suite: str
    traces: List[Trace] = field(default_factory=list)

    @property
    def num_threads(self) -> int:
        return len(self.traces)

    def total_instructions(self) -> int:
        return sum(len(trace) for trace in self.traces)

    def thread(self, index: int) -> Trace:
        return self.traces[index]

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

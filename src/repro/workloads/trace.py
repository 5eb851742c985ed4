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

``OutOfOrderCore.run_packed`` additionally consumes a :class:`TracePlan` —
a one-time pass over the packed columns that segments the trace into
maximal runs of "simple" ops (no loads, stores, branches, syscalls,
context switches or sandbox entries — nothing that touches the memory
hierarchy or the predictor) sharing one instruction-cache line, which the
core executes as batches.  Plans are derived data: they are built on
first use and kept per ``(trace, line size)`` on the :class:`PackedTrace`,
so a trace served from the per-process trace cache
(:func:`~repro.workloads.generator.cached_workload`) keeps its plans.
No trace leaves the process that generated it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cpu.instructions import (
    EXECUTION_LATENCY,
    F_BRANCH,
    F_CONTEXT_SWITCH,
    F_FORCE_MISPREDICT,
    F_FORCE_MISPREDICT_VALUE,
    F_LOAD,
    F_SANDBOX_ENTRY,
    F_STORE,
    F_SYSCALL,
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

#: Any of these flags makes an op "complex": it interacts with the memory
#: hierarchy, the branch predictor or the OS model, so the core must
#: execute it on the full per-op path.  Everything else (plain ALU work)
#: is "simple" and batchable.
COMPLEX_MASK = (F_LOAD | F_STORE | F_BRANCH | F_SYSCALL
                | F_CONTEXT_SWITCH | F_SANDBOX_ENTRY)

#: The instruction-cache line size plans are pre-built for when no core
#: configuration is at hand (matches ``CacheConfig.line_size``'s default).
#: Plans are keyed by line size and built lazily, so a machine with a
#: different line size simply builds its own plan on first use.
DEFAULT_LINE_SIZE = 64


class TracePlan:
    """Segmentation of a packed trace into batchable runs.

    ``run_end[i]`` is the exclusive end of the maximal batchable run
    starting at op ``i``: every op in ``[i, run_end[i])`` is simple and
    shares op ``i``'s instruction-cache line (so only the first op of a
    batch can miss in the line buffer).  For complex ops ``run_end[i]``
    equals ``i``.
    """

    __slots__ = ("line_size", "run_end")

    def __init__(self, line_size: int, run_end: List[int]) -> None:
        self.line_size = line_size
        self.run_end = run_end

    @classmethod
    def build(cls, packed: "PackedTrace", line_size: int) -> "TracePlan":
        # One backward scan: a simple op extends the run of its successor
        # when both sit on the same line.
        col_flags = packed.flags
        col_pcs = packed.pcs
        length = packed.length
        run_end = [0] * length
        i = length - 1
        while i >= 0:
            if col_flags[i] & COMPLEX_MASK:
                run_end[i] = i
                i -= 1
                continue
            stop = i + 1
            line = col_pcs[i] // line_size
            if stop < length and run_end[stop] > stop \
                    and col_pcs[stop] // line_size == line:
                stop = run_end[stop]
            run_end[i] = stop
            i -= 1
        return cls(line_size, run_end)


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
                 "dsts", "targets", "wrong_paths", "sequences", "_plans")

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
        #: line_size -> TracePlan, built on first use (derived data).
        self._plans: Optional[Dict[int, "TracePlan"]] = None

    def __len__(self) -> int:
        return len(self.flags)

    length = property(__len__)

    def plan(self, line_size: int) -> "TracePlan":
        """The (cached) batchable-run segmentation for ``line_size``.

        Plans are immutable derived data, built once per trace and line
        size and shared by every run of that trace in its process.
        """
        plans = self._plans
        if plans is None:
            plans = self._plans = {}
        plan = plans.get(line_size)
        if plan is None:
            plan = plans[line_size] = TracePlan.build(self, line_size)
        return plan

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

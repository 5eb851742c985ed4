"""Trace containers.

A :class:`Trace` is the unit of work a core executes: an ordered instruction
stream plus the metadata the experiment harness needs (which benchmark and
thread it models, which process it belongs to).  Multi-threaded workloads
(Parsec) are represented as a :class:`WorkloadTraces` bundle with one trace
per thread, all sharing one process/address space.

A trace is stored in one form only, a :class:`PackedTrace`: parallel lists
of flag bitmasks, pcs, addresses, latencies and register ids, read by the
zero-allocation core loop.  :meth:`PackedTrace.append` is the one
op-to-column encoder (the generator writes every op through it, and
:meth:`PackedTrace.pack` runs it over a
:class:`~repro.cpu.instructions.MicroOp` list); it folds the
``is_load/is_store/is_branch/is_transmitter`` classification into flag bits
so the hot loop never touches :class:`~repro.cpu.instructions.OpKind` enum
properties.  ``MicroOp`` objects are built only on demand, by
:meth:`PackedTrace.op` and :meth:`PackedTrace.unpack`.

``OutOfOrderCore.run_packed`` additionally consumes a :class:`TracePlan` —
a one-time pass over the packed columns that segments the trace into
maximal runs of "simple" ops (no loads, stores, branches, syscalls,
context switches or sandbox entries — nothing that touches the memory
hierarchy or the predictor) sharing one instruction-cache line, which the
core executes as batches.  Plans are derived data: they are cached per
``(trace, line size)`` on the :class:`PackedTrace` and deliberately
excluded from pickles (the on-disk trace cache stores only the columns;
plans rebuild on first use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

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
    WrongPathAccess,
    summarize_trace,
)

#: Index-order list of kinds, giving each a stable small integer code.
_KIND_CODES: List[OpKind] = list(OpKind)
_CODE_OF_KIND: Dict[OpKind, int] = {kind: code
                                    for code, kind in enumerate(_KIND_CODES)}

#: Sentinel for "no address / no target / no destination register".
_NONE = -1

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
        #: line_size -> cached TracePlan (derived data; never pickled).
        self._plans: Optional[Dict[int, "TracePlan"]] = None

    def __len__(self) -> int:
        return len(self.flags)

    length = property(__len__)

    def plan(self, line_size: int) -> "TracePlan":
        """The (cached) batchable-run segmentation for ``line_size``.

        Plans are immutable derived data, so building one in the campaign
        supervisor before workers fork shares it read-only with every
        worker for free.
        """
        plans = self._plans
        if plans is None:
            plans = self._plans = {}
        plan = plans.get(line_size)
        if plan is None:
            plan = plans[line_size] = TracePlan.build(self, line_size)
        return plan

    # Plans are excluded from pickles: the on-disk trace cache and any
    # cross-process transfer carry only the columns, and the plan rebuilds
    # (deterministically) on first use.  Pickles of another column layout
    # are never read back: a layout change bumps the trace cache's
    # TRACE_CACHE_VERSION.
    def __getstate__(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_plans"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._plans = None
        for name, value in state.items():
            setattr(self, name, value)

    def append(self, kind: OpKind, pc: int, *, sequence: int = 0,
               address: Optional[int] = None, src_regs: Sequence[int] = (),
               dst_reg: Optional[int] = None,
               execution_latency: Optional[int] = None, taken: bool = False,
               target: Optional[int] = None,
               force_mispredict: Optional[bool] = None,
               wrong_path: Sequence[WrongPathAccess] = (),
               is_context_switch: bool = False,
               is_sandbox_entry: bool = False) -> None:
        """Encode one op onto the columns (fields as on :class:`MicroOp`)."""
        flags = KIND_FLAGS[kind]
        if taken:
            flags |= F_TAKEN
        if is_context_switch:
            flags |= F_CONTEXT_SWITCH
        if is_sandbox_entry:
            flags |= F_SANDBOX_ENTRY
        if force_mispredict is not None:
            flags |= F_FORCE_MISPREDICT
            if force_mispredict:
                flags |= F_FORCE_MISPREDICT_VALUE
        self.kinds.append(_CODE_OF_KIND[kind])
        self.flags.append(flags)
        self.pcs.append(pc)
        self.addresses.append(_NONE if address is None else address)
        self.latencies.append(EXECUTION_LATENCY[kind]
                              if execution_latency is None
                              else execution_latency)
        self.srcs.append(tuple(src_regs) if src_regs else ())
        self.dsts.append(_NONE if dst_reg is None else dst_reg)
        self.targets.append(_NONE if target is None else target)
        self.wrong_paths.append(tuple(wrong_path) if wrong_path else ())
        self.sequences.append(sequence)

    @classmethod
    def pack(cls, ops: Iterable[MicroOp]) -> "PackedTrace":
        """Convert a micro-op list into the packed representation."""
        packed = cls()
        append = packed.append
        for op in ops:
            append(op.kind, op.pc, sequence=op.sequence, address=op.address,
                   src_regs=op.src_regs, dst_reg=op.dst_reg,
                   execution_latency=op.execution_latency, taken=op.taken,
                   target=op.target, force_mispredict=op.force_mispredict,
                   wrong_path=op.wrong_path,
                   is_context_switch=op.is_context_switch,
                   is_sandbox_entry=op.is_sandbox_entry)
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
            address=None if self.addresses[index] == _NONE
            else self.addresses[index],
            src_regs=self.srcs[index],
            dst_reg=None if self.dsts[index] == _NONE else self.dsts[index],
            execution_latency=self.latencies[index],
            taken=bool(flags & F_TAKEN),
            target=None if self.targets[index] == _NONE
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

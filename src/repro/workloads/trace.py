"""Trace containers.

A :class:`Trace` is the unit of work a core executes: an ordered instruction
stream plus the metadata the experiment harness needs (which benchmark and
thread it models, which process it belongs to).  Multi-threaded workloads
(Parsec) are represented as a :class:`WorkloadTraces` bundle with one trace
per thread, all sharing one process/address space.

Traces exist in two representations:

* a list of :class:`~repro.cpu.instructions.MicroOp` objects — the boundary
  format used by the generators, attacks and tests;
* a :class:`PackedTrace` — a struct-of-arrays view (parallel lists of flag
  bitmasks, pcs, addresses, latencies and register ids) consumed by the
  zero-allocation core loop.  Packing precomputes the
  ``is_load/is_store/is_branch/is_transmitter`` classification as flag bits
  so the hot loop never touches :class:`~repro.cpu.instructions.OpKind`
  enum properties.

``PackedTrace.pack`` / ``PackedTrace.unpack`` are lossless converters
between the two.

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
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cpu.instructions import (
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
    (source-register tuples, wrong-path access lists) are stored by
    reference, so packing is cheap and lossless.
    """

    __slots__ = ("length", "kinds", "flags", "pcs", "addresses", "latencies",
                 "srcs", "dsts", "targets", "wrong_paths", "sequences",
                 "_plans")

    def __init__(self, length: int, kinds: List[int], flags: List[int],
                 pcs: List[int], addresses: List[int], latencies: List[int],
                 srcs: List[tuple], dsts: List[int], targets: List[int],
                 wrong_paths: List[list], sequences: List[int]) -> None:
        self.length = length
        self.kinds = kinds
        self.flags = flags
        self.pcs = pcs
        self.addresses = addresses
        self.latencies = latencies
        self.srcs = srcs
        self.dsts = dsts
        self.targets = targets
        self.wrong_paths = wrong_paths
        self.sequences = sequences
        #: line_size -> cached TracePlan (derived data; never pickled).
        self._plans: Optional[Dict[int, "TracePlan"]] = None

    def __len__(self) -> int:
        return self.length

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
    # (deterministically) on first use.  This also keeps pickles written
    # by this version loadable by older readers and vice versa.
    def __getstate__(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_plans"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._plans = None
        for name, value in state.items():
            setattr(self, name, value)

    @classmethod
    def pack(cls, ops: Sequence[MicroOp]) -> "PackedTrace":
        """Convert a micro-op list into the packed representation."""
        length = len(ops)
        kinds = [0] * length
        flags = [0] * length
        pcs = [0] * length
        addresses = [_NONE] * length
        latencies = [0] * length
        srcs: List[tuple] = [()] * length
        dsts = [_NONE] * length
        targets = [_NONE] * length
        wrong_paths: List[list] = [None] * length  # type: ignore[list-item]
        sequences = [0] * length
        kind_flags = KIND_FLAGS
        code_of = _CODE_OF_KIND
        for i, op in enumerate(ops):
            op_flags = kind_flags[op.kind]
            if op.taken:
                op_flags |= F_TAKEN
            if op.is_context_switch:
                op_flags |= F_CONTEXT_SWITCH
            if op.is_sandbox_entry:
                op_flags |= F_SANDBOX_ENTRY
            if op.force_mispredict is not None:
                op_flags |= F_FORCE_MISPREDICT
                if op.force_mispredict:
                    op_flags |= F_FORCE_MISPREDICT_VALUE
            kinds[i] = code_of[op.kind]
            flags[i] = op_flags
            pcs[i] = op.pc
            if op.address is not None:
                addresses[i] = op.address
            latencies[i] = op.execution_latency
            if op.src_regs:
                srcs[i] = tuple(op.src_regs)
            if op.dst_reg is not None:
                dsts[i] = op.dst_reg
            if op.target is not None:
                targets[i] = op.target
            wrong_paths[i] = op.wrong_path
            sequences[i] = op.sequence
        return cls(length, kinds, flags, pcs, addresses, latencies, srcs,
                   dsts, targets, wrong_paths, sequences)

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
    """One thread's instruction stream."""

    benchmark: str
    thread_id: int
    process_id: int
    ops: List[MicroOp] = field(default_factory=list)
    #: Cached packed view; built lazily (or eagerly by the generator).
    _packed: Optional[PackedTrace] = field(default=None, repr=False,
                                           compare=False)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def packed(self) -> PackedTrace:
        """The struct-of-arrays view of this trace (cached).

        The cache is invalidated when ``ops`` changes length; callers that
        mutate ops in place should call :meth:`invalidate_packed`.
        """
        if self._packed is None or self._packed.length != len(self.ops):
            self._packed = PackedTrace.pack(self.ops)
        return self._packed

    def invalidate_packed(self) -> None:
        self._packed = None

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

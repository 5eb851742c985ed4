"""The out-of-order core timing model.

The core consumes a trace of micro-ops and computes, for each instruction,
when it dispatches, issues, completes and commits, under the structural
constraints of Table 1 (8-wide front end and commit, 192-entry ROB, 32-entry
load and store queues) and the data-flow constraints implied by register
dependencies and memory latency.  It is a constraint-propagation model
rather than a cycle-stepped pipeline: each instruction is processed once, in
program order, which keeps simulation O(1) per instruction while still
reproducing the behaviour the paper's evaluation depends on:

* speculative and *wrong-path* memory accesses reach the memory system
  before the branch that caused them resolves, and are then squashed;
* long-latency loads, NACK retries (MuonTrap's reduced coherency
  speculation) and commit-time validation (InvisiSpec) create back-pressure
  through the ROB/LSQ capacity constraints;
* STT-style defences delay the issue of transmit instructions that depend
  on a still-speculative load;
* every committed load/store/fetch performs its commit-time action in the
  memory system (write-through-at-commit, prefetcher training, exclusive
  upgrade, ...).

One engine, :meth:`OutOfOrderCore.run_packed`, holds these rules, in one
loop that takes every op through the same steps.  It consumes a
:class:`~repro.workloads.trace.PackedTrace` (struct-of-arrays), hoists
every attribute lookup and memory-system capability probe into locals,
keeps register ready-times/taints in flat arrays, and accumulates
statistics in plain local integers flushed to the
:class:`~repro.common.statistics.StatGroup` counters once per call.
Nothing is allocated per instruction.  The boundary API of attacks and
unit tests, :meth:`OutOfOrderCore.execute_op` (one :class:`MicroOp`) and
:meth:`OutOfOrderCore.run` (any trace), packs its ops and runs them there.

The same class serves single-core (SPEC CPU2006) and multi-core (Parsec)
experiments; in the latter case :class:`repro.sim.simulator.Simulator`
interleaves chunked ``run_packed`` calls across cores so that the cores'
clocks advance together and their traffic interacts in the shared L2 and
coherence bus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Tuple, Union

from repro.common.params import PipelineConfig, SystemConfig
from repro.common.statistics import StatGroup
from repro.cpu.branch_predictor import TournamentPredictor
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
    F_TRANSMITTER,
    MicroOp,
    OpKind,
)
from repro.cpu.interface import MemorySystem
from repro.telemetry.tracer import active_tracer as _active_tracer

#: Initial size of the flat register ready-time/taint arrays; grown on
#: demand for traces that name larger register ids.
_INITIAL_REGISTERS = 64

#: ``OpKind`` values by a packed trace's kind code (the kinds' definition
#: order), for the ``kind`` field of pipeline trace events.
_KIND_VALUES = tuple(kind.value for kind in OpKind)


@dataclass
class CoreResult:
    """Summary of one core's execution of one trace."""

    core_id: int
    committed_instructions: int
    cycles: int
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    mispredictions: int = 0
    squashed_accesses: int = 0
    nack_retries: int = 0

    @property
    def ipc(self) -> float:
        return (self.committed_instructions / self.cycles
                if self.cycles else 0.0)

    @property
    def misprediction_rate(self) -> float:
        if not self.committed_branches:
            return 0.0
        return self.mispredictions / self.committed_branches


class OutOfOrderCore:
    """An 8-wide out-of-order core driven by a micro-op trace."""

    def __init__(self, core_id: int, config: SystemConfig,
                 memory_system: MemorySystem,
                 process_id: int = 0,
                 stats: Optional[StatGroup] = None) -> None:
        self.core_id = core_id
        self.config = config
        # Per-core resolution: on a heterogeneous machine this core may run
        # a different pipeline (big.LITTLE) than its neighbours.
        per_core = config.core_config(core_id)
        self.core_config: PipelineConfig = per_core.pipeline
        self.memory = memory_system
        self.process_id = process_id
        stats = stats or StatGroup(f"core{core_id}")
        self.stats = stats
        self.predictor = TournamentPredictor(
            self.core_config.branch_predictor,
            stats=stats.child("branch_predictor"))
        # The core acts only on ``update``'s verdict, so it counts each
        # prediction here rather than asking for a direction it discards.
        self._predictions = self.predictor.stats.counter("predictions")
        # The ROB, load queue and store queue: the commit times of their
        # in-flight entries, oldest first.  An op dispatched while its
        # window holds ``core_config``'s capacity waits until the oldest
        # entry has committed; that back-pressure is how long-latency loads
        # and commit delays stall the front end.
        self._rob: Deque[int] = deque()
        self._load_queue: Deque[int] = deque()
        self._store_queue: Deque[int] = deque()
        # Register file: flat ready-time and taint-visibility arrays indexed
        # by register id (an unwritten register reads as ready at 0 with no
        # taint, exactly like the absent-dict-entry it replaces).
        self._reg_ready: List[int] = [0] * _INITIAL_REGISTERS
        self._reg_taint: List[Optional[int]] = [None] * _INITIAL_REGISTERS
        self._committed = stats.counter("committed_instructions")
        self._committed_loads = stats.counter("committed_loads")
        self._committed_stores = stats.counter("committed_stores")
        self._committed_branches = stats.counter("committed_branches")
        self._mispredictions = stats.counter("mispredictions")
        self._squashed_accesses = stats.counter("squashed_accesses")
        self._nack_retries = stats.counter("nack_retries")
        self._context_switches = stats.counter("context_switches")
        # Timing cursors.
        self._fetch_ready = 0           # when the front end can deliver next
        self._dispatched_in_cycle: Tuple[int, int] = (-1, 0)
        self._committed_in_cycle: Tuple[int, int] = (-1, 0)
        self._last_commit_time = 0
        self._last_branch_resolve = 0   # prefix max of branch resolve times
        self._line_size = per_core.l1i.line_size
        self._current_fetch_line: Optional[int] = None
        # Memory-system capability probes, hoisted once per core so the hot
        # loop never calls getattr/hasattr.
        self._stt_mode = getattr(memory_system, "delays_dependent_transmitters",
                                 False)
        self._stt_future = getattr(memory_system, "future_variant", False)
        # InvisiSpec's commit-time validation; None for every other scheme.
        self._validation_latency = getattr(memory_system,
                                           "validation_latency", None)
        self._record_delayed_forward = getattr(memory_system,
                                               "record_delayed_forward", None)
        # The base-class commit_load and commit_fetch are empty hooks that
        # cost no cycles; when the scheme does not override one (only
        # MuonTrap overrides either) the core skips the call outright.
        self._commit_load_is_noop = (
            type(memory_system).commit_load is MemorySystem.commit_load)
        self._commit_fetch_is_noop = (
            type(memory_system).commit_fetch is MemorySystem.commit_fetch)

    # -- execution ------------------------------------------------------------
    def execute_op(self, op: MicroOp) -> int:
        """Execute one micro-op; returns its commit time."""
        # Imported here: repro.workloads.trace imports repro.cpu, whose
        # package imports this module.
        from repro.workloads.trace import PackedTrace
        return self.run_packed(PackedTrace.pack((op,)))

    def run_packed(self, packed, start: int = 0,
                   end: Optional[int] = None) -> int:
        """Execute ops ``[start, end)`` of a packed trace; returns the clock.

        The one timing model of the core: one loop takes each op, in
        program order, through fetch, dispatch, issue, execute and commit.
        Every per-op attribute lookup is hoisted into locals, and
        statistics are accumulated in local integers that are flushed once
        per call.  A call may start and stop anywhere in the trace (the
        simulator interleaves cores in chunks); all timing state lives on
        the core between calls.  Schemes that keep the base class's empty
        ``commit_load`` or ``commit_fetch`` hook are not called for it.

        When a tracer is active (``repro.telemetry``), the loop emits the
        pipeline events (``issue``, ``nack_retry``, ``mispredict``,
        ``squash``, ``commit``) and keeps ``tracer.now`` at the cycle the
        memory side is being asked about; the results are those of an
        untraced run.  With tracing off (the default) the guard is one
        module-global read per call plus local ``None`` tests, which keeps
        telemetry free of calls when disabled.
        """
        tracer = _active_tracer()
        if end is None:
            end = packed.length
        # -- trace columns ---------------------------------------------------
        col_kinds = packed.kinds
        col_flags = packed.flags
        col_pcs = packed.pcs
        col_addresses = packed.addresses
        col_latencies = packed.latencies
        col_srcs = packed.srcs
        col_dsts = packed.dsts
        col_targets = packed.targets
        col_wrong_paths = packed.wrong_paths
        # -- hoisted collaborators -------------------------------------------
        core_id = self.core_id
        process_id = self.process_id
        memory = self.memory
        mem_fetch = memory.fetch
        mem_load = memory.load
        mem_store_address_ready = memory.store_address_ready
        mem_commit_load = (None if self._commit_load_is_noop
                           else memory.commit_load)
        mem_commit_store = memory.commit_store
        mem_commit_fetch = (None if self._commit_fetch_is_noop
                            else memory.commit_fetch)
        mem_squash = memory.squash
        mem_context_switch = memory.context_switch
        mem_sandbox_entry = memory.sandbox_entry
        mem_validation_latency = self._validation_latency
        record_delayed_forward = self._record_delayed_forward
        predictor_update = self.predictor.update
        rob_times = self._rob
        lq_times = self._load_queue
        sq_times = self._store_queue
        rob_pop = rob_times.popleft
        lq_pop = lq_times.popleft
        sq_pop = sq_times.popleft
        rob_append = rob_times.append
        lq_append = lq_times.append
        sq_append = sq_times.append
        reg_ready = self._reg_ready
        reg_taint = self._reg_taint
        reg_limit = len(reg_ready)
        # -- hoisted configuration -------------------------------------------
        core_config = self.core_config
        width = core_config.width
        mispredict_penalty = core_config.mispredict_penalty
        rob_capacity = core_config.rob_entries
        lq_capacity = core_config.lq_entries
        sq_capacity = core_config.sq_entries
        line_size = self._line_size
        stt_mode = self._stt_mode
        stt_future = self._stt_future
        # -- core state pulled into locals -----------------------------------
        fetch_ready = self._fetch_ready
        current_fetch_line = self._current_fetch_line
        last_commit_time = self._last_commit_time
        last_branch_resolve = self._last_branch_resolve
        dispatch_cycle, dispatch_used = self._dispatched_in_cycle
        commit_cycle, commit_used = self._committed_in_cycle
        # -- locally accumulated statistics ----------------------------------
        n_committed = 0
        n_loads = 0
        n_stores = 0
        n_branches = 0
        n_predictions = 0
        n_mispredictions = 0
        n_squashed = 0
        n_nack_retries = 0
        n_context_switches = 0

        for index in range(start, end):
            flags = col_flags[index]
            pc = col_pcs[index]

            # 1. Front end: fetch and dispatch, bounded by ROB/LSQ occupancy
            #    and dispatch bandwidth.
            fetch_line = pc - pc % line_size
            fetch_time = fetch_ready
            if fetch_line != current_fetch_line:
                latency = mem_fetch(core_id, process_id, pc, fetch_time,
                                    speculative=True).latency - 1
                if latency > 0:
                    fetch_time += latency
                current_fetch_line = fetch_line
            fetch_ready = fetch_time

            dispatch_time = fetch_time
            if len(rob_times) >= rob_capacity:
                oldest = rob_times[0]
                if oldest > dispatch_time:
                    dispatch_time = oldest
            is_load = flags & F_LOAD
            is_store = flags & F_STORE
            if is_load and len(lq_times) >= lq_capacity:
                oldest = lq_times[0]
                if oldest > dispatch_time:
                    dispatch_time = oldest
            if is_store and len(sq_times) >= sq_capacity:
                oldest = sq_times[0]
                if oldest > dispatch_time:
                    dispatch_time = oldest
            if dispatch_time > dispatch_cycle:
                dispatch_cycle = dispatch_time
                dispatch_used = 1
            elif dispatch_used < width:
                dispatch_time = dispatch_cycle
                dispatch_used += 1
            else:
                dispatch_cycle += 1
                dispatch_used = 1
                dispatch_time = dispatch_cycle

            # 2. Issue: wait for source operands (plus STT taint delays).
            source_taint = None
            issue_time = dispatch_time + 1
            srcs = col_srcs[index]
            if srcs:
                for reg in srcs:
                    if reg >= reg_limit:
                        continue
                    value = reg_ready[reg]
                    if value > issue_time:
                        issue_time = value
                    visibility = reg_taint[reg]
                    if visibility is not None and (source_taint is None
                                                   or visibility > source_taint):
                        source_taint = visibility
                if (stt_mode and source_taint is not None
                        and flags & F_TRANSMITTER
                        and issue_time < source_taint):
                    issue_time = source_taint
                    if record_delayed_forward is not None:
                        record_delayed_forward()
            if tracer is not None:
                tracer.now = issue_time
                event_address = col_addresses[index]
                if event_address < 0:
                    event_address = None
                event_kind = _KIND_VALUES[col_kinds[index]]
                tracer.emit("pipeline", "issue", cycle=issue_time,
                            core=core_id, address=event_address, pc=pc,
                            kind=event_kind)

            # 3. Execute.
            taint_visibility = None
            if is_load:
                address = col_addresses[index]
                result = mem_load(core_id, process_id, address, issue_time,
                                  speculative=True)
                if result.must_retry_nonspeculative:
                    n_nack_retries += 1
                    retry_time = (issue_time if issue_time > last_commit_time
                                  else last_commit_time)
                    if tracer is not None:
                        tracer.now = retry_time
                        tracer.emit("pipeline", "nack_retry", cycle=retry_time,
                                    core=core_id, address=address, pc=pc)
                    retry = mem_load(core_id, process_id, address, retry_time,
                                     speculative=False)
                    completion = retry_time + retry.latency
                else:
                    completion = issue_time + result.latency
                if stt_mode:
                    if stt_future:
                        taint_visibility = (completion
                                            if completion > last_commit_time
                                            else last_commit_time)
                    else:
                        taint_visibility = (completion
                                            if completion > last_branch_resolve
                                            else last_branch_resolve)
            elif is_store:
                mem_store_address_ready(core_id, process_id,
                                        col_addresses[index], issue_time,
                                        speculative=True)
                completion = issue_time + col_latencies[index]
            elif flags & F_BRANCH:
                resolve_time = issue_time + col_latencies[index]
                taken = bool(flags & F_TAKEN)
                target = col_targets[index]
                if target < 0:
                    target = None
                if flags & F_FORCE_MISPREDICT:
                    mispredicted = bool(flags & F_FORCE_MISPREDICT_VALUE)
                    predictor_update(pc, taken, target)
                else:
                    n_predictions += 1
                    mispredicted = predictor_update(pc, taken, target)
                if resolve_time > last_branch_resolve:
                    last_branch_resolve = resolve_time
                if mispredicted:
                    n_mispredictions += 1
                    if tracer is not None:
                        tracer.emit("pipeline", "mispredict",
                                    cycle=resolve_time, core=core_id, pc=pc)
                    wrong_path = col_wrong_paths[index]
                    if wrong_path:
                        window = resolve_time - dispatch_time
                        if window < 1:
                            window = 1
                        for access in wrong_path:
                            offset = access.issue_offset
                            issue_at = dispatch_time + (
                                offset if offset < window else window)
                            if tracer is not None:
                                tracer.now = issue_at
                                tracer.emit(
                                    "pipeline", "squash", cycle=issue_at,
                                    core=core_id, address=access.address,
                                    pc=pc, store=access.is_store,
                                    fetch=access.is_instruction)
                            if access.is_instruction:
                                mem_fetch(core_id, process_id, access.address,
                                          issue_at, speculative=True)
                            elif access.is_store:
                                mem_store_address_ready(
                                    core_id, process_id, access.address,
                                    issue_at, speculative=True)
                            else:
                                mem_load(core_id, process_id, access.address,
                                         issue_at, speculative=True)
                            n_squashed += 1
                        current_fetch_line = None
                        mem_squash(core_id, resolve_time)
                    redirect = resolve_time + mispredict_penalty
                    if redirect > fetch_ready:
                        fetch_ready = redirect
                completion = resolve_time
            else:
                completion = issue_time + col_latencies[index]

            if stt_mode and not is_load and source_taint is not None:
                # STT propagates taint transitively through non-load
                # producers until the original load's visibility point.
                if taint_visibility is None or source_taint > taint_visibility:
                    taint_visibility = source_taint

            # 4. Commit in order, at most ``width`` per cycle.
            commit_time = (completion if completion > last_commit_time
                           else last_commit_time)
            if commit_time > commit_cycle:
                commit_cycle = commit_time
                commit_used = 1
            elif commit_used < width:
                commit_time = commit_cycle
                commit_used += 1
            else:
                commit_cycle += 1
                commit_used = 1
                commit_time = commit_cycle
            if tracer is not None:
                tracer.now = commit_time

            extra = 0
            if is_load:
                n_loads += 1
                address = col_addresses[index]
                if mem_validation_latency is not None:
                    # InvisiSpec validation/exposure: the Spectre variant
                    # issues it once older branches have resolved, the
                    # Future variant only at commit.  Either way commit
                    # waits for it.
                    if stt_future:
                        visibility = commit_time
                    else:
                        visibility = (last_branch_resolve
                                      if last_branch_resolve > issue_time
                                      else issue_time)
                    overshoot = visibility + mem_validation_latency(
                        core_id, process_id, address, visibility) - commit_time
                    if overshoot > 0:
                        extra += overshoot
                if mem_commit_load is not None:
                    extra += mem_commit_load(core_id, process_id, address,
                                             commit_time + extra)
            elif is_store:
                n_stores += 1
                extra += mem_commit_store(core_id, process_id,
                                          col_addresses[index],
                                          commit_time + extra)
            elif flags & F_BRANCH:
                n_branches += 1
            if mem_commit_fetch is not None:
                mem_commit_fetch(core_id, process_id, pc, commit_time + extra)
            if flags & (F_SYSCALL | F_CONTEXT_SWITCH):
                n_context_switches += 1
                mem_context_switch(core_id, commit_time + extra)
                extra += mispredict_penalty
            if flags & F_SANDBOX_ENTRY:
                mem_sandbox_entry(core_id, commit_time + extra)
            commit_time += extra
            last_commit_time = commit_time
            if tracer is not None:
                tracer.now = commit_time
                tracer.emit("pipeline", "commit", cycle=commit_time,
                            core=core_id, address=event_address, pc=pc,
                            kind=event_kind, issue=issue_time)

            # 5. Update structures.
            while rob_times and rob_times[0] <= dispatch_time:
                rob_pop()
            while rob_times and len(rob_times) >= rob_capacity:
                rob_pop()
            rob_append(commit_time)
            if is_load:
                while lq_times and lq_times[0] <= dispatch_time:
                    lq_pop()
                while lq_times and len(lq_times) >= lq_capacity:
                    lq_pop()
                lq_append(commit_time)
            if is_store:
                while sq_times and sq_times[0] <= dispatch_time:
                    sq_pop()
                while sq_times and len(sq_times) >= sq_capacity:
                    sq_pop()
                sq_append(commit_time)
            dst = col_dsts[index]
            if dst >= 0:
                if dst >= reg_limit:
                    grow = dst + 1 - reg_limit
                    reg_ready.extend([0] * grow)
                    reg_taint.extend([None] * grow)
                    reg_limit = dst + 1
                reg_ready[dst] = completion
                reg_taint[dst] = taint_visibility
            n_committed += 1

        # -- write state back -------------------------------------------------
        self._fetch_ready = fetch_ready
        self._current_fetch_line = current_fetch_line
        self._last_commit_time = last_commit_time
        self._last_branch_resolve = last_branch_resolve
        self._dispatched_in_cycle = (dispatch_cycle, dispatch_used)
        self._committed_in_cycle = (commit_cycle, commit_used)
        # -- flush accumulated statistics -------------------------------------
        if n_committed:
            self._committed.add(n_committed)
        if n_loads:
            self._committed_loads.add(n_loads)
        if n_stores:
            self._committed_stores.add(n_stores)
        if n_branches:
            self._committed_branches.add(n_branches)
        if n_predictions:
            self._predictions.add(n_predictions)
        if n_mispredictions:
            self._mispredictions.add(n_mispredictions)
        if n_squashed:
            self._squashed_accesses.add(n_squashed)
        if n_nack_retries:
            self._nack_retries.add(n_nack_retries)
        if n_context_switches:
            self._context_switches.add(n_context_switches)
        return last_commit_time

    # -- whole-trace execution -----------------------------------------------------------------------------
    def run(self, trace: Union["Trace", "PackedTrace", Iterable[MicroOp]]
            ) -> CoreResult:
        """Execute a complete trace and return the timing summary.

        Accepts a :class:`~repro.workloads.trace.Trace`, a
        :class:`~repro.workloads.trace.PackedTrace` or any iterable of
        :class:`MicroOp`, which is packed first.
        """
        packed = getattr(trace, "packed", None)
        if packed is not None:                 # a Trace
            trace = packed()
        elif not hasattr(trace, "flags"):      # micro-ops, not a PackedTrace
            from repro.workloads.trace import PackedTrace  # see execute_op
            trace = PackedTrace.pack(trace)
        self.run_packed(trace)
        return self.result()

    def register_ready_time(self, register: int) -> int:
        """Cycle at which ``register``'s value becomes available.

        Used by attack harnesses and tests to time an individual
        instruction through the real core: the completion time of an op's
        destination register, minus the completion time of a producer it
        depends on, is exactly the latency the memory system charged.
        """
        if 0 <= register < len(self._reg_ready):
            return self._reg_ready[register]
        return 0

    def result(self) -> CoreResult:
        return CoreResult(
            core_id=self.core_id,
            committed_instructions=self._committed.value,
            cycles=self._last_commit_time,
            committed_loads=self._committed_loads.value,
            committed_stores=self._committed_stores.value,
            committed_branches=self._committed_branches.value,
            mispredictions=self._mispredictions.value,
            squashed_accesses=self._squashed_accesses.value,
            nack_retries=self._nack_retries.value)

    @property
    def current_cycle(self) -> int:
        return self._last_commit_time

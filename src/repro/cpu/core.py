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

Two execution paths produce bit-identical results:

* :meth:`OutOfOrderCore.execute_op` — one :class:`MicroOp` at a time; the
  boundary API used by attacks and unit tests.
* :meth:`OutOfOrderCore.run_packed` — the hot path.  It consumes a
  :class:`~repro.workloads.trace.PackedTrace` (struct-of-arrays), hoists
  every attribute lookup and memory-system capability probe into locals,
  keeps register ready-times/taints in flat arrays, executes runs of
  simple ALU ops on one instruction-cache line as batches, and
  accumulates statistics in plain local integers flushed to the
  :class:`~repro.common.statistics.StatGroup` counters once per call.
  Nothing is allocated per instruction.

The same class serves single-core (SPEC CPU2006) and multi-core (Parsec)
experiments; in the latter case :class:`repro.sim.simulator.Simulator`
interleaves chunked ``run_packed`` calls across cores so that the cores'
clocks advance together and their traffic interacts in the shared L2 and
coherence bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

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
)
from repro.cpu.interface import MemorySystem
from repro.cpu.rob import LoadQueue, ReorderBuffer, StoreQueue
from repro.telemetry.tracer import active_tracer as _active_tracer

#: Initial size of the flat register ready-time/taint arrays; grown on
#: demand for traces that name larger register ids.
_INITIAL_REGISTERS = 64


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
        self.rob = ReorderBuffer(self.core_config.rob_entries)
        self.load_queue = LoadQueue(self.core_config.lq_entries)
        self.store_queue = StoreQueue(self.core_config.sq_entries)
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
        self._invisispec = hasattr(memory_system, "validation_latency")
        self._validation_latency = getattr(memory_system,
                                           "validation_latency", None)
        self._record_delayed_forward = getattr(memory_system,
                                               "record_delayed_forward", None)
        # The base-class commit_load and commit_fetch are empty hooks that
        # cost no cycles; when the scheme does not override one (only
        # MuonTrap overrides either) the core skips the call outright
        # (commit_fetch only in run_packed).
        self._commit_load_is_noop = (
            type(memory_system).commit_load is MemorySystem.commit_load)
        self._commit_fetch_is_noop = (
            type(memory_system).commit_fetch is MemorySystem.commit_fetch)
        # The active tracer for the op currently in execute_op (None when
        # tracing is off); helpers read it instead of re-consulting the
        # module-level guard.
        self._tracer = None

    # -- bandwidth helpers ---------------------------------------------------------
    def _bandwidth_limit(self, desired_time: int,
                         tracker: Tuple[int, int],
                         width: int) -> Tuple[int, Tuple[int, int]]:
        """Allow at most ``width`` events per cycle; returns (time, tracker)."""
        cycle, used = tracker
        if desired_time > cycle:
            return desired_time, (desired_time, 1)
        if used < width:
            return cycle, (cycle, used + 1)
        return cycle + 1, (cycle + 1, 1)

    # -- register file helpers --------------------------------------------------------
    def _ensure_register(self, register: int) -> None:
        if register >= len(self._reg_ready):
            grow = register + 1 - len(self._reg_ready)
            self._reg_ready.extend([0] * grow)
            self._reg_taint.extend([None] * grow)

    def _read_sources(self, op: MicroOp) -> Tuple[int, Optional[int]]:
        """Return (ready_time, taint_visibility) over the op's source registers."""
        ready = 0
        taint: Optional[int] = None
        limit = len(self._reg_ready)
        for reg in op.src_regs:
            if reg >= limit:
                continue
            value = self._reg_ready[reg]
            if value > ready:
                ready = value
            visibility = self._reg_taint[reg]
            if visibility is not None and (taint is None or visibility > taint):
                taint = visibility
        return ready, taint

    def _write_destination(self, op: MicroOp, ready_time: int,
                           taint_visibility: Optional[int]) -> None:
        if op.dst_reg is None:
            return
        self._ensure_register(op.dst_reg)
        self._reg_ready[op.dst_reg] = ready_time
        self._reg_taint[op.dst_reg] = taint_visibility

    # -- front end ---------------------------------------------------------------------
    def _fetch(self, op: MicroOp, earliest: int) -> int:
        """Model the instruction-cache access for this op's fetch group."""
        fetch_line = op.pc - (op.pc % self._line_size)
        fetch_time = max(self._fetch_ready, earliest)
        if fetch_line != self._current_fetch_line:
            result = self.memory.fetch(self.core_id, self.process_id, op.pc,
                                       fetch_time, speculative=True)
            fetch_time += max(0, result.latency - 1)
            self._current_fetch_line = fetch_line
        self._fetch_ready = fetch_time
        return fetch_time

    # -- wrong-path execution --------------------------------------------------------------
    def _execute_wrong_path(self, op: MicroOp, dispatch_time: int,
                            resolve_time: int) -> None:
        """Issue the squashed accesses a mispredicted branch would cause."""
        if not op.wrong_path:
            return
        window = max(1, resolve_time - dispatch_time)
        tracer = self._tracer
        for access in op.wrong_path:
            issue_at = dispatch_time + min(access.issue_offset, window)
            if tracer is not None:
                tracer.now = issue_at
                tracer.emit("pipeline", "squash", cycle=issue_at,
                            core=self.core_id, address=access.address,
                            pc=op.pc, store=access.is_store,
                            fetch=access.is_instruction)
            if access.is_instruction:
                self.memory.fetch(self.core_id, self.process_id,
                                  access.address, issue_at, speculative=True)
            elif access.is_store:
                self.memory.store_address_ready(self.core_id, self.process_id,
                                                access.address, issue_at,
                                                speculative=True)
            else:
                self.memory.load(self.core_id, self.process_id, access.address,
                                 issue_at, speculative=True)
            self._squashed_accesses.increment()
        # The fetch path also ran down the wrong path; the next correct-path
        # fetch re-reads the instruction cache.
        self._current_fetch_line = None
        self.memory.squash(self.core_id, resolve_time)

    # -- main per-instruction processing --------------------------------------------------------
    def execute_op(self, op: MicroOp) -> int:
        """Process one micro-op; returns its commit time."""
        tracer = self._tracer = _active_tracer()

        # 1. Front end: fetch and dispatch, bounded by ROB/LSQ occupancy and
        #    dispatch bandwidth.
        fetch_time = self._fetch(op, self._fetch_ready)
        dispatch_time = self.rob.earliest_dispatch_time(fetch_time)
        if op.is_load:
            dispatch_time = max(dispatch_time,
                                self.load_queue.earliest_dispatch_time(
                                    dispatch_time))
        if op.is_store:
            dispatch_time = max(dispatch_time,
                                self.store_queue.earliest_dispatch_time(
                                    dispatch_time))
        dispatch_time, self._dispatched_in_cycle = self._bandwidth_limit(
            dispatch_time, self._dispatched_in_cycle, self.core_config.width)

        # 2. Issue: wait for source operands (plus STT taint delays).
        source_ready, source_taint = self._read_sources(op)
        issue_time = max(dispatch_time + 1, source_ready)
        if (self._stt_mode and source_taint is not None
                and op.kind.is_transmitter):
            if issue_time < source_taint:
                issue_time = source_taint
                if self._record_delayed_forward is not None:
                    self._record_delayed_forward()
        if tracer is not None:
            tracer.now = issue_time
            tracer.emit("pipeline", "issue", cycle=issue_time,
                        core=self.core_id, address=op.address, pc=op.pc,
                        kind=op.kind.value)

        # 3. Execute.
        completion, taint_visibility = self._execute(op, issue_time,
                                                     dispatch_time)
        if self._stt_mode and not op.is_load and source_taint is not None:
            # STT propagates taint transitively through non-load producers:
            # the result of an ALU op on a tainted value is itself tainted
            # until the original load's visibility point.
            taint_visibility = (source_taint if taint_visibility is None
                                else max(taint_visibility, source_taint))

        # 4. Commit in order, at most ``width`` per cycle.
        commit_time = max(completion, self._last_commit_time)
        commit_time, self._committed_in_cycle = self._bandwidth_limit(
            commit_time, self._committed_in_cycle, self.core_config.width)
        if tracer is not None:
            tracer.now = commit_time
        commit_time += self._commit_actions(op, commit_time, issue_time)
        self._last_commit_time = commit_time
        if tracer is not None:
            tracer.now = commit_time
            tracer.emit("pipeline", "commit", cycle=commit_time,
                        core=self.core_id, address=op.address, pc=op.pc,
                        kind=op.kind.value, issue=issue_time)

        # 5. Update structures.
        self.rob.retire_older_than(dispatch_time)
        self.rob.allocate(commit_time)
        if op.is_load:
            self.load_queue.retire_older_than(dispatch_time)
            self.load_queue.allocate(commit_time)
        if op.is_store:
            self.store_queue.retire_older_than(dispatch_time)
            self.store_queue.allocate(commit_time)
        self._write_destination(op, completion, taint_visibility)
        self._committed.increment()
        return commit_time

    # -- execution of the different op kinds -------------------------------------------------------
    def _execute(self, op: MicroOp, issue_time: int,
                 dispatch_time: int) -> Tuple[int, Optional[int]]:
        """Return (completion_time, taint_visibility_for_dst)."""
        if op.is_load:
            return self._execute_load(op, issue_time)
        if op.is_store:
            self.memory.store_address_ready(self.core_id, self.process_id,
                                            op.address, issue_time,
                                            speculative=True)
            return issue_time + op.execution_latency, None
        if op.is_branch:
            return self._execute_branch(op, issue_time, dispatch_time), None
        # Plain ALU / FP / system ops.
        return issue_time + op.execution_latency, None

    def _execute_load(self, op: MicroOp,
                      issue_time: int) -> Tuple[int, Optional[int]]:
        result = self.memory.load(self.core_id, self.process_id, op.address,
                                  issue_time, speculative=True)
        if result.must_retry_nonspeculative:
            # MuonTrap NACKed the access (it would disturb another core's
            # private line): retry once the load is the oldest outstanding
            # instruction, i.e. not before every older instruction committed.
            self._nack_retries.increment()
            retry_time = max(issue_time, self._last_commit_time)
            if self._tracer is not None:
                self._tracer.now = retry_time
                self._tracer.emit("pipeline", "nack_retry", cycle=retry_time,
                                  core=self.core_id, address=op.address,
                                  pc=op.pc)
            retry = self.memory.load(self.core_id, self.process_id, op.address,
                                     retry_time, speculative=False)
            completion = retry_time + retry.latency
        else:
            completion = issue_time + result.latency
        # STT taint: the loaded value is unsafe to forward to transmitters
        # until the load's visibility point.
        visibility: Optional[int] = None
        if self._stt_mode:
            if self._stt_future:
                visibility = max(completion, self._last_commit_time)
            else:
                visibility = max(completion, self._last_branch_resolve)
        return completion, visibility

    def _execute_branch(self, op: MicroOp, issue_time: int,
                        dispatch_time: int) -> int:
        resolve_time = issue_time + op.execution_latency
        if op.force_mispredict is None:
            self._predictions.value += 1
            mispredicted = self.predictor.update(op.pc, op.taken, op.target)
        else:
            mispredicted = op.force_mispredict
            self.predictor.update(op.pc, op.taken, op.target)
        self._last_branch_resolve = max(self._last_branch_resolve,
                                        resolve_time)
        if mispredicted:
            self._mispredictions.increment()
            if self._tracer is not None:
                self._tracer.emit("pipeline", "mispredict",
                                  cycle=resolve_time, core=self.core_id,
                                  pc=op.pc)
            self._execute_wrong_path(op, dispatch_time, resolve_time)
            # Redirect: the front end can only deliver correct-path
            # instructions after the pipeline refills.
            self._fetch_ready = max(
                self._fetch_ready,
                resolve_time + self.core_config.mispredict_penalty)
        return resolve_time

    # -- commit actions -------------------------------------------------------------------------------
    def _commit_actions(self, op: MicroOp, commit_time: int,
                        issue_time: int) -> int:
        """Perform memory-system commit work; returns extra commit latency."""
        extra = 0
        if op.is_load:
            self._committed_loads.increment()
            if self._invisispec:
                # InvisiSpec validation/exposure: the Spectre variant issues
                # it once older branches have resolved, the Future variant
                # only at commit.  Either way commit waits for it, so the
                # load-queue entry, held until commit, outlasts the
                # re-access.
                visibility = (commit_time if self._stt_future
                              else max(self._last_branch_resolve, issue_time))
                validation = self.memory.validation_latency(
                    self.core_id, self.process_id, op.address, visibility)
                extra += max(0, visibility + validation - commit_time)
            if not self._commit_load_is_noop:
                extra += self.memory.commit_load(
                    self.core_id, self.process_id, op.address,
                    commit_time + extra)
        elif op.is_store:
            self._committed_stores.increment()
            extra += self.memory.commit_store(self.core_id, self.process_id,
                                              op.address, commit_time + extra)
        elif op.is_branch:
            self._committed_branches.increment()
        self.memory.commit_fetch(self.core_id, self.process_id, op.pc,
                                 commit_time + extra)
        if op.is_syscall or op.is_context_switch:
            self._context_switches.increment()
            self.memory.context_switch(self.core_id, commit_time + extra)
            extra += self.core_config.mispredict_penalty
        if op.is_sandbox_entry:
            self.memory.sandbox_entry(self.core_id, commit_time + extra)
        return extra

    # -- packed-trace execution (the hot path) ------------------------------------------------------
    def run_packed(self, packed, start: int = 0,
                   end: Optional[int] = None) -> int:
        """Execute ops ``[start, end)`` of a packed trace; returns the clock.

        This is the zero-allocation twin of :meth:`execute_op`: identical
        step-for-step semantics (it is golden-tested to produce bit-identical
        cycles, instructions and statistics), but driven by the
        struct-of-arrays trace with every per-op attribute lookup hoisted
        into locals and statistics accumulated in local integers that are
        flushed once per call.

        The trace's plan (:meth:`~repro.workloads.trace.PackedTrace.plan`)
        marks maximal runs of simple ALU ops sharing one instruction-cache
        line.  Such a run executes as a batch: one fetch-line check for the
        whole run, no per-op classification and, for schemes that never
        override the hook, no ``commit_fetch`` upcall.  Complex ops —
        loads, stores, branches, syscalls — take the full per-op path,
        which likewise skips ``commit_load`` for schemes that keep the
        empty hook.  A call may start or stop inside a run (the simulator
        interleaves cores in chunks): the plan records every op's run end.

        When a tracer is active (``repro.telemetry``), execution routes
        through the per-op boundary path instead — bit-identical results,
        every hook point live.  With tracing off (the default) the check
        is one module-global read per call and the loop below is
        untouched, which is what keeps telemetry zero-cost when disabled.
        """
        if _active_tracer() is not None:
            return self._run_packed_traced(packed, start, end)
        if end is None:
            end = packed.length
        plan_run_end = packed.plan(self._line_size).run_end
        # -- trace columns ---------------------------------------------------
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
        mem_commit_fetch = memory.commit_fetch
        mem_squash = memory.squash
        mem_context_switch = memory.context_switch
        mem_sandbox_entry = memory.sandbox_entry
        mem_validation_latency = self._validation_latency
        record_delayed_forward = self._record_delayed_forward
        predictor_update = self.predictor.update
        rob = self.rob
        load_queue = self.load_queue
        store_queue = self.store_queue
        rob_times = rob._commit_times
        lq_times = load_queue._commit_times
        sq_times = store_queue._commit_times
        rob_pop = rob_times.popleft
        lq_pop = lq_times.popleft
        sq_pop = sq_times.popleft
        rob_append = rob_times.append
        lq_append = lq_times.append
        sq_append = sq_times.append
        rob_capacity = rob.capacity
        lq_capacity = load_queue.capacity
        sq_capacity = store_queue.capacity
        reg_ready = self._reg_ready
        reg_taint = self._reg_taint
        reg_limit = len(reg_ready)
        # -- hoisted configuration -------------------------------------------
        width = self.core_config.width
        mispredict_penalty = self.core_config.mispredict_penalty
        line_size = self._line_size
        stt_mode = self._stt_mode
        stt_future = self._stt_future
        invisispec = self._invisispec
        commit_fetch_noop = self._commit_fetch_is_noop
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
        n_rob_stalls = 0
        n_lq_stalls = 0
        n_sq_stalls = 0

        index = start
        while index < end:
            stop = plan_run_end[index]
            if stop > index:
                # ==== batched simple run [index, stop) ======================
                if stop > end:
                    stop = end
                # Fetch: every op in the batch shares one line, so only
                # the first can miss the line buffer, and no simple op
                # moves ``fetch_ready`` afterwards.
                pc = col_pcs[index]
                fetch_line = pc - pc % line_size
                fetch_time = fetch_ready
                if fetch_line != current_fetch_line:
                    latency = mem_fetch(core_id, process_id, pc, fetch_time,
                                        speculative=True).latency - 1
                    if latency > 0:
                        fetch_time += latency
                    current_fetch_line = fetch_line
                fetch_ready = fetch_time

                for op_index in range(index, stop):
                    dispatch_time = fetch_time
                    if len(rob_times) >= rob_capacity:
                        oldest = rob_times[0]
                        if oldest > dispatch_time:
                            n_rob_stalls += 1
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

                    # No STT issue delay: only loads and stores transmit,
                    # and they are never simple.
                    source_taint = None
                    issue_time = dispatch_time + 1
                    srcs = col_srcs[op_index]
                    if srcs:
                        for reg in srcs:
                            if reg >= reg_limit:
                                continue
                            value = reg_ready[reg]
                            if value > issue_time:
                                issue_time = value
                            visibility = reg_taint[reg]
                            if visibility is not None \
                                    and (source_taint is None
                                         or visibility > source_taint):
                                source_taint = visibility
                    completion = issue_time + col_latencies[op_index]
                    if stt_mode and source_taint is not None:
                        taint_visibility = source_taint
                    else:
                        taint_visibility = None

                    commit_time = (completion
                                   if completion > last_commit_time
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
                    if not commit_fetch_noop:
                        mem_commit_fetch(core_id, process_id,
                                         col_pcs[op_index], commit_time)
                    last_commit_time = commit_time

                    while rob_times and rob_times[0] <= dispatch_time:
                        rob_pop()
                    while rob_times and len(rob_times) >= rob_capacity:
                        rob_pop()
                    rob_append(commit_time)
                    dst = col_dsts[op_index]
                    if dst >= 0:
                        if dst >= reg_limit:
                            grow = dst + 1 - reg_limit
                            reg_ready.extend([0] * grow)
                            reg_taint.extend([None] * grow)
                            reg_limit = dst + 1
                        reg_ready[dst] = completion
                        reg_taint[dst] = taint_visibility
                    n_committed += 1
                index = stop
                continue

            # ==== complex op: the full per-op path ===========================
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
                    n_rob_stalls += 1
                    dispatch_time = oldest
            is_load = flags & F_LOAD
            is_store = flags & F_STORE
            if is_load and len(lq_times) >= lq_capacity:
                oldest = lq_times[0]
                if oldest > dispatch_time:
                    n_lq_stalls += 1
                    dispatch_time = oldest
            if is_store and len(sq_times) >= sq_capacity:
                oldest = sq_times[0]
                if oldest > dispatch_time:
                    n_sq_stalls += 1
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
                    wrong_path = col_wrong_paths[index]
                    if wrong_path:
                        window = resolve_time - dispatch_time
                        if window < 1:
                            window = 1
                        for access in wrong_path:
                            offset = access.issue_offset
                            issue_at = dispatch_time + (
                                offset if offset < window else window)
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

            extra = 0
            if is_load:
                n_loads += 1
                address = col_addresses[index]
                if invisispec:
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
            if not commit_fetch_noop:
                mem_commit_fetch(core_id, process_id, pc, commit_time + extra)
            if flags & (F_SYSCALL | F_CONTEXT_SWITCH):
                n_context_switches += 1
                mem_context_switch(core_id, commit_time + extra)
                extra += mispredict_penalty
            if flags & F_SANDBOX_ENTRY:
                mem_sandbox_entry(core_id, commit_time + extra)
            commit_time += extra
            last_commit_time = commit_time

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
            index += 1

        # -- write state back -------------------------------------------------
        self._fetch_ready = fetch_ready
        self._current_fetch_line = current_fetch_line
        self._last_commit_time = last_commit_time
        self._last_branch_resolve = last_branch_resolve
        self._dispatched_in_cycle = (dispatch_cycle, dispatch_used)
        self._committed_in_cycle = (commit_cycle, commit_used)
        rob.full_stalls += n_rob_stalls
        load_queue.full_stalls += n_lq_stalls
        store_queue.full_stalls += n_sq_stalls
        # -- flush batched statistics -----------------------------------------
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

    def _run_packed_traced(self, packed, start: int = 0,
                           end: Optional[int] = None) -> int:
        """The traced twin of :meth:`run_packed`.

        Materialises each op and drives it through :meth:`execute_op` — the
        boundary path golden-tested bit-identical to the packed loop — so
        the pipeline, cache, coherence, filter and TLB hook points all fire
        while cycles, instructions and statistics stay exactly those of the
        untraced run.
        """
        if end is None:
            end = packed.length
        op_at = packed.op
        execute_op = self.execute_op
        for index in range(start, end):
            execute_op(op_at(index))
        return self._last_commit_time

    # -- whole-trace execution -----------------------------------------------------------------------------
    def run(self, trace: Union["Trace", "PackedTrace", Iterable[MicroOp]]
            ) -> CoreResult:
        """Execute a complete trace and return the timing summary.

        Accepts a :class:`~repro.workloads.trace.Trace` or
        :class:`~repro.workloads.trace.PackedTrace` (executed through the
        packed fast path) or any iterable of :class:`MicroOp` (executed
        op-by-op through :meth:`execute_op`).
        """
        packed = getattr(trace, "packed", None)
        if packed is not None:                 # a Trace
            self.run_packed(packed())
        elif hasattr(trace, "flags"):          # already a PackedTrace
            self.run_packed(trace)
        else:
            for op in trace:
                self.execute_op(op)
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

"""The synthetic trace generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into one
:class:`~repro.workloads.trace.Trace` per thread.  The generator is the
substitution for running the real SPEC CPU2006 / Parsec binaries: it
produces instruction streams whose *statistical* behaviour —
instruction mix, data locality, streaming, pointer chasing, branch
predictability, wrong-path traffic, instruction footprint and inter-thread
sharing — matches the profile, so that the relative timing of the different
protection schemes emerges from the simulator rather than being scripted.
Each op is written straight into the trace's packed columns
(:meth:`~repro.workloads.trace.PackedTrace.append`); no per-op object is
built.

Address-space layout (virtual addresses, per process):

* code:    ``0x0040_0000`` upward, one 4-byte slot per static instruction;
* private data per thread: ``0x1000_0000 + thread * 0x0100_0000``;
* shared data (Parsec): ``0x7000_0000``, common to all threads of a process;
* wrong-path data: drawn from the same data regions, so squashed accesses
  pollute exactly the structures the real attacks and the prefetcher care
  about.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.rng import DeterministicRng
from repro.cpu.instructions import OpKind, WrongPathAccess
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import PackedTrace, Trace, WorkloadTraces

CODE_BASE = 0x0040_0000
PRIVATE_DATA_BASE = 0x1000_0000
PRIVATE_DATA_STRIDE = 0x0100_0000
SHARED_DATA_BASE = 0x7000_0000
LINE_SIZE = 64


@dataclass
class _DataStream:
    """One sequential access stream (models array traversals)."""

    cursor: int
    stride: int
    remaining: int


@dataclass
class _ThreadState:
    """Mutable generation state for one thread."""

    rng: DeterministicRng
    data_base: int
    shared_base: int
    packed: PackedTrace = field(default_factory=PackedTrace)
    pc: int = CODE_BASE
    recent_lines: List[int] = field(default_factory=list)
    streams: List[_DataStream] = field(default_factory=list)
    last_load_reg: Optional[int] = None
    next_reg: int = 1
    last_load_line: Optional[int] = None


class TraceGenerator:
    """Generates per-thread micro-op traces from a workload profile."""

    #: How many recently-touched lines the temporal-locality draw can reuse.
    #: 32 lines is 2 KiB, i.e. the hot reuse distance roughly matches the
    #: default filter-cache capacity, as short-distance reuse does in the
    #: real benchmarks.
    REUSE_WINDOW = 32

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed

    # -- public API ------------------------------------------------------------
    def generate(self, instructions: int,
                 process_id: int = 0) -> WorkloadTraces:
        """Generate traces for every thread of the workload."""
        profile = self.profile.scaled_for_sample(instructions)
        traces = [self._generate_thread(profile, instructions, thread_id,
                                        process_id)
                  for thread_id in range(self.profile.num_threads)]
        return WorkloadTraces(benchmark=self.profile.name,
                              suite=self.profile.suite, traces=traces)

    def generate_single(self, instructions: int, thread_id: int = 0,
                        process_id: int = 0) -> Trace:
        """Generate one thread's trace (used by unit tests)."""
        profile = self.profile.scaled_for_sample(instructions)
        return self._generate_thread(profile, instructions, thread_id,
                                     process_id)

    # -- generation --------------------------------------------------------------
    def _generate_thread(self, profile: WorkloadProfile, instructions: int,
                         thread_id: int, process_id: int) -> Trace:
        rng = DeterministicRng(self.seed).fork(thread_id + 1)
        state = _ThreadState(
            rng=rng,
            data_base=PRIVATE_DATA_BASE + thread_id * PRIVATE_DATA_STRIDE,
            shared_base=SHARED_DATA_BASE)
        mix = self._mix_weights(profile)
        for _ in range(instructions):
            kind = rng.weighted_choice(*mix)
            if kind is OpKind.LOAD:
                self._make_load(profile, state)
            elif kind is OpKind.STORE:
                self._make_store(profile, state)
            elif kind is OpKind.BRANCH:
                self._make_branch(profile, state)
            elif kind is OpKind.SYSCALL:
                self._make_syscall(state)
            else:
                self._make_compute(profile, state, kind)
        return Trace(profile.name, thread_id, process_id, state.packed)

    def _mix_weights(self, profile: WorkloadProfile):
        kinds = [OpKind.LOAD, OpKind.STORE, OpKind.BRANCH, OpKind.FP_ALU,
                 OpKind.MUL_DIV, OpKind.SYSCALL, OpKind.INT_ALU]
        alu = max(0.01, 1.0 - (profile.load_fraction + profile.store_fraction
                               + profile.branch_fraction + profile.fp_fraction
                               + profile.mul_fraction + profile.syscall_rate))
        weights = [profile.load_fraction, profile.store_fraction,
                   profile.branch_fraction, profile.fp_fraction,
                   profile.mul_fraction, profile.syscall_rate, alu]
        return kinds, weights

    # -- program counter handling ------------------------------------------------
    def _advance_pc(self, profile: WorkloadProfile,
                    state: _ThreadState) -> int:
        pc = state.pc
        state.pc += 4
        footprint = max(256, profile.instruction_footprint_bytes)
        if state.pc >= CODE_BASE + footprint:
            state.pc = CODE_BASE
        return pc

    def _branch_target(self, profile: WorkloadProfile,
                       state: _ThreadState) -> int:
        footprint = max(256, profile.instruction_footprint_bytes)
        hot_bytes = max(128, int(footprint * profile.hot_code_fraction))
        if state.rng.chance(profile.loop_bias):
            # Loop back within the hot region of the code.
            offset = state.rng.randint(0, hot_bytes // 4 - 1) * 4
        else:
            offset = state.rng.randint(0, footprint // 4 - 1) * 4
        return CODE_BASE + offset

    # -- data address generation -----------------------------------------------------
    def _remember_line(self, state: _ThreadState, address: int) -> None:
        line = address - (address % LINE_SIZE)
        state.recent_lines.append(line)
        if len(state.recent_lines) > self.REUSE_WINDOW:
            state.recent_lines.pop(0)

    def _stream_address(self, profile: WorkloadProfile,
                        state: _ThreadState) -> int:
        """Next address of one of the workload's sequential streams."""
        rng = state.rng
        if (not state.streams
                or (len(state.streams) < profile.concurrent_streams
                    and rng.chance(0.1))):
            start = state.data_base + rng.randint(
                0, max(1, profile.working_set_bytes // LINE_SIZE) - 1) * LINE_SIZE
            stride = rng.choice([8, 8, 16, 16, 32, 64])
            state.streams.append(_DataStream(cursor=start, stride=stride,
                                             remaining=rng.randint(128, 768)))
        stream = rng.choice(state.streams)
        address = stream.cursor
        stream.cursor += stream.stride
        stream.remaining -= 1
        if stream.remaining <= 0 or (
                stream.cursor >= state.data_base + profile.working_set_bytes):
            state.streams.remove(stream)
        return address

    def _conflict_address(self, profile: WorkloadProfile,
                          state: _ThreadState) -> int:
        """Addresses that collide in a low-associativity filter cache.

        Power-of-two strides map many concurrently live lines to the same
        set, which is the behaviour that makes cactusADM sensitive to
        filter-cache associativity (Figure 6).
        """
        rng = state.rng
        way = rng.randint(0, 7)
        set_stride = 2048  # same set in a 2 KiB filter cache regardless of ways
        return state.data_base + way * set_stride + rng.randint(0, 1) * 8

    def _data_address(self, profile: WorkloadProfile, state: _ThreadState,
                      for_store: bool = False) -> int:
        rng = state.rng
        shared = (profile.shared_fraction > 0.0
                  and rng.chance(profile.shared_fraction))
        base = state.shared_base if shared else state.data_base
        working_set = (profile.shared_working_set_bytes if shared
                       else profile.working_set_bytes)
        working_set = max(LINE_SIZE * 4, working_set)
        if not shared and profile.set_conflict_pressure > 0.0 and rng.chance(
                profile.set_conflict_pressure * 0.3):
            address = self._conflict_address(profile, state)
        elif not shared and rng.chance(profile.streaming):
            address = self._stream_address(profile, state)
        elif state.recent_lines and rng.chance(profile.temporal_locality):
            index = rng.zipf_index(len(state.recent_lines))
            line = state.recent_lines[-(index + 1)]
            address = line + rng.randint(0, LINE_SIZE - 1) & ~0x7
        elif state.recent_lines and rng.chance(profile.spatial_locality):
            line = state.recent_lines[-1]
            address = line + LINE_SIZE + rng.randint(0, LINE_SIZE - 1) & ~0x7
        else:
            hot = rng.chance(0.6)
            region = (max(LINE_SIZE * 2, profile.hot_set_bytes) if hot
                      else working_set)
            address = base + rng.randint(0, max(1, region // 8) - 1) * 8
        self._remember_line(state, address)
        return address

    def _wrong_path_accesses(self, profile: WorkloadProfile,
                             state: _ThreadState) -> List[WrongPathAccess]:
        """Squashed accesses a misprediction of this branch would produce."""
        rng = state.rng
        count = rng.geometric(max(1.0, profile.wrong_path_loads), maximum=6)
        accesses: List[WrongPathAccess] = []
        for index in range(count):
            # Wrong-path accesses hit the same working set but without the
            # pattern of the committed stream: mostly random lines, which is
            # what perturbs the stride prefetcher in an unprotected system.
            region = max(LINE_SIZE * 4, profile.working_set_bytes)
            address = state.data_base + rng.randint(
                0, max(1, region // 8) - 1) * 8
            accesses.append(WrongPathAccess(address=address,
                                            is_store=rng.chance(0.15),
                                            issue_offset=index + 1))
        if rng.chance(0.3):
            accesses.append(WrongPathAccess(
                address=self._branch_target(profile, state),
                is_instruction=True, issue_offset=1))
        return accesses

    # -- per-kind op encoders ---------------------------------------------------------
    def _fresh_register(self, state: _ThreadState) -> int:
        register = state.next_reg
        state.next_reg = (state.next_reg + 1) % 64 or 1
        return register

    def _make_load(self, profile: WorkloadProfile,
                   state: _ThreadState) -> None:
        rng = state.rng
        pc = self._advance_pc(profile, state)
        src_regs = ()
        if (profile.pointer_chase_fraction > 0.0
                and state.last_load_reg is not None
                and rng.chance(profile.pointer_chase_fraction)):
            # A dependent (pointer-chasing) load: its address comes from the
            # previous load's result.
            src_regs = (state.last_load_reg,)
        address = self._data_address(profile, state)
        dst = self._fresh_register(state)
        state.last_load_reg = dst
        state.last_load_line = address - (address % LINE_SIZE)
        state.packed.append(OpKind.LOAD, pc, address=address,
                            src_regs=src_regs, dst_reg=dst)

    def _make_store(self, profile: WorkloadProfile,
                    state: _ThreadState) -> None:
        rng = state.rng
        pc = self._advance_pc(profile, state)
        if rng.chance(profile.store_private_fraction) and state.recent_lines:
            # Store to data that was recently read: the line is likely
            # already held privately, so no invalidation broadcast is needed.
            line = state.recent_lines[-rng.zipf_index(
                len(state.recent_lines)) - 1]
            address = line + (rng.randint(0, LINE_SIZE // 8 - 1) * 8)
        else:
            address = self._data_address(profile, state, for_store=True)
        src_regs = ()
        if state.last_load_reg is not None and rng.chance(
                profile.load_use_fraction):
            src_regs = (state.last_load_reg,)
        state.packed.append(OpKind.STORE, pc, address=address,
                            src_regs=src_regs)

    def _make_branch(self, profile: WorkloadProfile,
                     state: _ThreadState) -> None:
        rng = state.rng
        pc = self._advance_pc(profile, state)
        # Each static branch is biased; how strongly determines how well the
        # tournament predictor learns it.  The bias must be a deterministic
        # function of the static branch (not Python's randomised hash) so
        # traces are reproducible across processes.
        biased_taken = (zlib.crc32(f"{self.profile.name}:{pc}".encode())
                        & 1) == 0
        follows_bias = rng.chance(profile.branch_predictability)
        taken = biased_taken if follows_bias else not biased_taken
        src_regs = ()
        if state.last_load_reg is not None and rng.chance(
                profile.load_use_fraction * 0.5):
            src_regs = (state.last_load_reg,)
        # The wrong-path draws come after the target draw.
        target = self._branch_target(profile, state)
        state.packed.append(OpKind.BRANCH, pc, taken=taken, target=target,
                            src_regs=src_regs,
                            wrong_path=self._wrong_path_accesses(profile,
                                                                 state))
        if taken:
            state.pc = target

    def _make_syscall(self, state: _ThreadState) -> None:
        pc = self._advance_pc(self.profile, state)
        state.packed.append(OpKind.SYSCALL, pc)

    def _make_compute(self, profile: WorkloadProfile, state: _ThreadState,
                      kind: OpKind) -> None:
        rng = state.rng
        pc = self._advance_pc(profile, state)
        src_regs = ()
        if state.last_load_reg is not None and rng.chance(
                profile.load_use_fraction):
            src_regs = (state.last_load_reg,)
        dst = self._fresh_register(state)
        state.packed.append(kind, pc, src_regs=src_regs, dst_reg=dst)


def generate_workload(profile, instructions: int,
                      seed: int = 0, process_id: int = 0) -> WorkloadTraces:
    """Convenience wrapper used by the experiment harness.

    Accepts a :class:`~repro.workloads.profiles.WorkloadProfile` or a
    :class:`~repro.workloads.mixes.MixProfile`; the latter is composed from
    its constituents (each cached individually) by
    :func:`repro.workloads.mixes.generate_mix`.

    Generation is pure in its arguments, so results are cached through
    :mod:`repro.workloads.cache` (in-memory LRU, plus an on-disk tier when
    ``REPRO_TRACE_CACHE`` names a directory).  A campaign sweeping one
    benchmark across several protection schemes therefore generates the
    trace once.  Campaign workers additionally consult the fork-inherited
    shared registry first — workloads the campaign parent materialised
    before forking are attached by reference, not regenerated or
    re-unpickled.  Cached workloads are shared objects: treat them as
    immutable, as all harness code does.
    """
    from repro.workloads.mixes import MixProfile, generate_mix
    if isinstance(profile, MixProfile):
        # Mixes are composed by reference from their (individually cached)
        # constituents, so composition is nearly free; caching the composed
        # bundle as well would duplicate every constituent trace in the
        # cache (and, on the disk tier, pickle full copies of the shared
        # columns), for no generation saved.
        return generate_mix(profile, instructions, seed=seed)

    from repro.workloads.cache import (active_trace_cache,
                                       shared_trace_lookup, trace_key)
    shared = shared_trace_lookup(profile, instructions, seed, process_id)
    if shared is not None:
        return shared
    cache = active_trace_cache()
    if cache is None:
        return TraceGenerator(profile, seed=seed).generate(
            instructions, process_id=process_id)
    key = trace_key(profile, instructions, seed, process_id)
    workload = cache.get(key)
    if workload is None:
        workload = TraceGenerator(profile, seed=seed).generate(
            instructions, process_id=process_id)
        cache.put(key, workload)
    return workload

"""The synthetic trace generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into one
:class:`~repro.workloads.trace.Trace` per thread.  The generator is the
substitution for running the real SPEC CPU2006 / Parsec binaries: it
produces instruction streams whose *statistical* behaviour —
instruction mix, data locality, streaming, pointer chasing, branch
predictability, wrong-path traffic, instruction footprint and inter-thread
sharing — matches the profile, so that the relative timing of the different
protection schemes emerges from the simulator rather than being scripted.
Each op is written straight into the trace's packed columns, its kind's
columns from :data:`~repro.workloads.trace.KIND_ENCODING`; no per-op object
is built.

Each thread binds its draw primitives and works out its profile's
constants once.  A probability ``p`` costs a draw, ``random() < p``, only
strictly between 0 and 1; at either end it decides without one.  The
digests in ``tests/workloads/test_trace_content.py`` pin every draw.

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
from typing import List, Tuple

from repro.common.rng import DeterministicRng
from repro.cpu.instructions import F_TAKEN, OpKind, WrongPathAccess
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import (ABSENT, KIND_ENCODING, PackedTrace, Trace,
                                   WorkloadTraces)

CODE_BASE = 0x0040_0000
PRIVATE_DATA_BASE = 0x1000_0000
PRIVATE_DATA_STRIDE = 0x0100_0000
SHARED_DATA_BASE = 0x7000_0000
LINE_SIZE = 64

#: The kinds the per-op draw picks from, in the order of ``_mix_weights``.
_MIX_KINDS = (OpKind.LOAD, OpKind.STORE, OpKind.BRANCH, OpKind.FP_ALU,
              OpKind.MUL_DIV, OpKind.SYSCALL, OpKind.INT_ALU)
_LOAD, _STORE, _BRANCH, _SYSCALL = (
    KIND_ENCODING[kind][0]
    for kind in (OpKind.LOAD, OpKind.STORE, OpKind.BRANCH, OpKind.SYSCALL))
#: Register id -> the source tuple of an op reading it, shared by all.
_SOURCES = [(register,) for register in range(64)]
#: The strides a new sequential stream draws from.
_STREAM_STRIDES = (8, 8, 16, 16, 32, 64)


def _mix_weights(profile: WorkloadProfile) -> List[float]:
    alu = max(0.01, 1.0 - (profile.load_fraction + profile.store_fraction
                           + profile.branch_fraction + profile.fp_fraction
                           + profile.mul_fraction + profile.syscall_rate))
    return [profile.load_fraction, profile.store_fraction,
            profile.branch_fraction, profile.fp_fraction,
            profile.mul_fraction, profile.syscall_rate, alu]


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
        random = rng.random
        below = rng.below
        zipf_index = rng.zipf_index
        draw_kind = rng.weighted([KIND_ENCODING[kind] for kind in _MIX_KINDS],
                                 _mix_weights(profile))
        reuse_window = self.REUSE_WINDOW
        recent: List[int] = []
        # Live sequential streams, each ``[cursor, stride, remaining]``.
        streams: List[List[int]] = []

        # -- the profile's constants -----------------------------------------
        data_base = PRIVATE_DATA_BASE + thread_id * PRIVATE_DATA_STRIDE
        data_end = data_base + profile.working_set_bytes
        stream_lines = max(1, profile.working_set_bytes // LINE_SIZE)
        private_words = max(
            1, max(LINE_SIZE * 4, profile.working_set_bytes) // 8)
        shared_words = max(
            1, max(LINE_SIZE * 4, profile.shared_working_set_bytes) // 8)
        hot_words = max(1, max(LINE_SIZE * 2, profile.hot_set_bytes) // 8)
        footprint = max(256, profile.instruction_footprint_bytes)
        code_end = CODE_BASE + footprint
        code_slots = footprint // 4
        hot_code_slots = max(128, int(footprint
                                      * profile.hot_code_fraction)) // 4
        # A syscall wraps the pc at the unscaled profile's code footprint.
        syscall_code_end = CODE_BASE + max(
            256, self.profile.instruction_footprint_bytes)
        concurrent_streams = profile.concurrent_streams
        shared_fraction = profile.shared_fraction
        conflict = profile.set_conflict_pressure * 0.3
        streaming = profile.streaming
        temporal = profile.temporal_locality
        spatial = profile.spatial_locality
        loop_bias = profile.loop_bias
        pointer_chase = profile.pointer_chase_fraction
        store_private = profile.store_private_fraction
        load_use = profile.load_use_fraction
        branch_load_use = profile.load_use_fraction * 0.5
        predictability = profile.branch_predictability
        wrong_path_mean = max(1.0, profile.wrong_path_loads)
        wrong_path_stop = 1.0 / wrong_path_mean
        branch_name = f"{profile.name}:"

        def branch_target() -> int:
            if loop_bias > 0.0 and (loop_bias >= 1.0 or random() < loop_bias):
                # Loop back within the hot region of the code.
                return CODE_BASE + below(hot_code_slots) * 4
            return CODE_BASE + below(code_slots) * 4

        def stream_address() -> int:
            """Next address of one of the workload's sequential streams."""
            if not streams or (len(streams) < concurrent_streams
                               and random() < 0.1):
                start = data_base + below(stream_lines) * LINE_SIZE
                stride = _STREAM_STRIDES[below(len(_STREAM_STRIDES))]
                streams.append([start, stride, 128 + below(641)])
            stream = streams[below(len(streams))]
            address = stream[0]
            stream[0] += stream[1]
            stream[2] -= 1
            if stream[2] <= 0 or stream[0] >= data_end:
                # ``remove`` drops the first stream *equal* to this one,
                # which need not be this one; later draws pick streams by
                # their place in the list, so that choice must not change.
                streams.remove(stream)
            return address

        def data_address() -> int:
            shared = shared_fraction > 0.0 and (
                shared_fraction >= 1.0 or random() < shared_fraction)
            if not shared and conflict > 0.0 and (
                    conflict >= 1.0 or random() < conflict):
                # Eight ways 2 KiB apart collide in one set of a 2 KiB
                # filter cache whatever its associativity: the power-of-two
                # strides that make cactusADM sensitive to filter-cache
                # associativity (Figure 6).
                address = data_base + below(8) * 2048 + below(2) * 8
            elif not shared and streaming > 0.0 and (
                    streaming >= 1.0 or random() < streaming):
                address = stream_address()
            elif recent and temporal > 0.0 and (
                    temporal >= 1.0 or random() < temporal):
                line = recent[-zipf_index(len(recent)) - 1]
                address = line + below(LINE_SIZE) & ~0x7
            elif recent and spatial > 0.0 and (
                    spatial >= 1.0 or random() < spatial):
                address = recent[-1] + LINE_SIZE + below(LINE_SIZE) & ~0x7
            elif random() < 0.6:
                address = ((SHARED_DATA_BASE if shared else data_base)
                           + below(hot_words) * 8)
            elif shared:
                address = SHARED_DATA_BASE + below(shared_words) * 8
            else:
                address = data_base + below(private_words) * 8
            recent.append(address - address % LINE_SIZE)
            if len(recent) > reuse_window:
                del recent[0]
            return address

        def wrong_path() -> Tuple[WrongPathAccess, ...]:
            """Squashed accesses a misprediction of this branch would produce.

            Their number is geometric with mean ``wrong_path_loads``, at
            most six.  They hit the same working set but without the
            pattern of the committed stream: mostly random lines, which is
            what perturbs the stride prefetcher in an unprotected system.
            """
            count = 1
            if wrong_path_mean > 1.0:
                while not random() < wrong_path_stop:
                    count += 1
                    if count >= 6:
                        break
            # Positional fields: address, is_store, is_instruction and
            # issue_offset.
            accesses = []
            for offset in range(1, count + 1):
                address = data_base + below(private_words) * 8
                accesses.append(WrongPathAccess(address, random() < 0.15,
                                                False, offset))
            if random() < 0.3:
                accesses.append(WrongPathAccess(branch_target(), False, True,
                                                1))
            return tuple(accesses)

        # -- the ops ------------------------------------------------------------
        packed = PackedTrace()
        kinds_append = packed.kinds.append
        flags_append = packed.flags.append
        pcs_append = packed.pcs.append
        addresses_append = packed.addresses.append
        latencies_append = packed.latencies.append
        srcs_append = packed.srcs.append
        dsts_append = packed.dsts.append
        targets_append = packed.targets.append
        wrong_paths_append = packed.wrong_paths.append
        crc32 = zlib.crc32
        next_pc = CODE_BASE
        last_load_reg = None
        next_reg = 1
        for _ in range(instructions):
            code, flags, latency = draw_kind()
            pc = next_pc
            next_pc = pc + 4
            if next_pc >= code_end:
                next_pc = CODE_BASE
            address = dst = target = ABSENT
            sources = wrong = ()
            if code == _LOAD:
                if pointer_chase > 0.0 and last_load_reg is not None and (
                        pointer_chase >= 1.0 or random() < pointer_chase):
                    # A dependent (pointer-chasing) load: its address comes
                    # from the previous load's result.
                    sources = _SOURCES[last_load_reg]
                address = data_address()
                dst = last_load_reg = next_reg
                next_reg = (next_reg + 1) % 64 or 1
            elif code == _STORE:
                if store_private > 0.0 and (
                        store_private >= 1.0 or random() < store_private) \
                        and recent:
                    # Store to data that was recently read: the line is
                    # likely already held privately, so no invalidation
                    # broadcast is needed.
                    address = (recent[-zipf_index(len(recent)) - 1]
                               + below(LINE_SIZE // 8) * 8)
                else:
                    address = data_address()
                if last_load_reg is not None and load_use > 0.0 and (
                        load_use >= 1.0 or random() < load_use):
                    sources = _SOURCES[last_load_reg]
            elif code == _BRANCH:
                # Each static branch is biased; how strongly determines how
                # well the tournament predictor learns it.  The bias must be
                # a deterministic function of the static branch (not
                # Python's randomised hash) so traces are reproducible
                # across processes.
                biased_taken = (crc32(f"{branch_name}{pc}".encode()) & 1) == 0
                follows_bias = predictability > 0.0 and (
                    predictability >= 1.0 or random() < predictability)
                taken = biased_taken if follows_bias else not biased_taken
                if last_load_reg is not None and branch_load_use > 0.0 and (
                        branch_load_use >= 1.0
                        or random() < branch_load_use):
                    sources = _SOURCES[last_load_reg]
                # The wrong-path draws come after the target draw.
                target = branch_target()
                wrong = wrong_path()
                if taken:
                    flags |= F_TAKEN
                    next_pc = target
            elif code == _SYSCALL:
                next_pc = pc + 4
                if next_pc >= syscall_code_end:
                    next_pc = CODE_BASE
            else:
                if last_load_reg is not None and load_use > 0.0 and (
                        load_use >= 1.0 or random() < load_use):
                    sources = _SOURCES[last_load_reg]
                dst = next_reg
                next_reg = (next_reg + 1) % 64 or 1
            kinds_append(code)
            flags_append(flags)
            pcs_append(pc)
            addresses_append(address)
            latencies_append(latency)
            srcs_append(sources)
            dsts_append(dst)
            targets_append(target)
            wrong_paths_append(wrong)
        # Generated ops carry no sequence number.
        packed.sequences = [0] * instructions
        return Trace(profile.name, thread_id, process_id, packed)


def generate_workload(profile, instructions: int,
                      seed: int = 0, process_id: int = 0) -> WorkloadTraces:
    """Convenience wrapper used by the experiment harness.

    Accepts a :class:`~repro.workloads.profiles.WorkloadProfile` or a
    :class:`~repro.workloads.mixes.MixProfile`; the latter is composed from
    its constituents (each cached individually) by
    :func:`repro.workloads.mixes.generate_mix`.

    Generation is pure in its arguments, so results are cached through
    :mod:`repro.workloads.cache` (in-memory LRU, plus an on-disk tier when
    ``REPRO_TRACE_CACHE`` names a directory).  A process sweeping one
    benchmark across several protection schemes therefore generates the
    trace once; a parallel campaign's workers each call this for the
    cells they run.  Cached workloads are shared objects: treat them as
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

    from repro.workloads.cache import active_trace_cache, trace_key
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

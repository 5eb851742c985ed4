"""Pins the exact content of generated traces.

The golden stats cover only a few short traces, and the per-op and packed
engines read the same columns, so neither would notice an encoding slip in
the generator.  These digests hash every field of every op of a spread of
workloads (pointer-chasing, streaming, compute-bound, four-threaded Parsec,
branch-heavy and a co-run mix), so any change to what the generator emits
shows up here.
"""

import gc
import hashlib

import pytest

from repro.cpu.instructions import MicroOp
from repro.workloads.cache import TRACE_CACHE_ENV, reset_trace_cache
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import get_profile

SEED = 1234


@pytest.fixture(autouse=True)
def _trace_cache_off(monkeypatch):
    """Generate every trace afresh: no cache tier may hand back a copy."""
    monkeypatch.setenv(TRACE_CACHE_ENV, "off")
    reset_trace_cache()
    yield
    reset_trace_cache()


def _op_fields(op: MicroOp) -> tuple:
    return (op.kind.value, op.pc, op.sequence, op.address,
            tuple(op.src_regs), op.dst_reg, op.execution_latency, op.taken,
            op.target, op.force_mispredict,
            tuple((access.address, access.is_store, access.is_instruction,
                   access.issue_offset) for access in op.wrong_path),
            op.is_context_switch, op.is_sandbox_entry)


def workload_digest(workload) -> str:
    digest = hashlib.sha256()
    for trace in workload:
        digest.update(repr((trace.benchmark, trace.thread_id,
                            trace.process_id)).encode())
        for op in trace.ops:
            digest.update(repr(_op_fields(op)).encode())
    return digest.hexdigest()[:24]


@pytest.mark.parametrize("name, instructions, expected", [
    ("mcf", 8000, "dbbcb19b41b83dc69aec198b"),
    ("povray", 8000, "2efa709f1f1baec8f39766cd"),
    ("lbm", 8000, "f242e97806fabf11d8351873"),
    ("canneal", 2000, "41cc168dbb010fd1fca1612e"),
    ("gobmk", 3000, "9a389ce0378ba27e94e3ca31"),
    ("mix-pointer-stream", 2000, "38d7deb2249220bbf0667053"),
])
def test_generated_trace_content_is_pinned(name, instructions, expected):
    workload = generate_workload(get_profile(name), instructions, seed=SEED)
    assert workload_digest(workload) == expected


def _live_micro_ops() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is MicroOp)


def test_generated_traces_keep_no_micro_ops_resident():
    """A trace lives only as packed columns; ops are built on demand."""
    gc.collect()
    before = _live_micro_ops()
    workload = generate_workload(get_profile("mcf"), 5000, seed=SEED)
    gc.collect()
    assert _live_micro_ops() <= before
    wrong_paths = workload.thread(0).packed().wrong_paths
    empty = [entry for entry in wrong_paths if not entry]
    assert empty
    assert all(entry is empty[0] for entry in empty)

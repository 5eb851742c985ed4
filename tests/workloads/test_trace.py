"""Tests for the trace containers."""

from repro.cpu.instructions import MicroOp, OpKind
from repro.workloads.trace import PackedTrace, Trace, WorkloadTraces


def make_trace(thread_id=0, n=10):
    ops = [MicroOp(kind=OpKind.INT_ALU, pc=0x1000 + 4 * i, dst_reg=1)
           for i in range(n)]
    return Trace("demo", thread_id, 0, PackedTrace.pack(ops))


class TestTrace:
    def test_length_and_iteration(self):
        trace = make_trace(n=5)
        assert len(trace) == 5
        assert sum(1 for _ in trace) == 5

    def test_summary_matches_contents(self):
        trace = make_trace(n=8)
        summary = trace.summary()
        assert summary["total"] == 8
        assert summary["loads"] == 0
        assert summary["int_alu"] == 8


class TestWorkloadTraces:
    def test_bundle_accounting(self):
        workload = WorkloadTraces(benchmark="demo", suite="parsec",
                                  traces=[make_trace(0, 4), make_trace(1, 6)])
        assert workload.num_threads == 2
        assert workload.total_instructions() == 10
        assert workload.thread(1).thread_id == 1
        assert [trace.thread_id for trace in workload] == [0, 1]

"""Tests for the out-of-order core model, branch predictor and windows."""

from dataclasses import replace

import pytest

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import (
    BranchPredictorConfig,
    PipelineConfig,
    SystemConfig,
)
from repro.core.muontrap import MuonTrapMemorySystem
from repro.cpu.branch_predictor import TournamentPredictor
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instructions import MicroOp, OpKind, WrongPathAccess, summarize_trace


class TestBranchPredictorComponents:
    def test_table_counters_saturate_at_both_bounds(self):
        """Every table entry is a 2-bit counter: starts at 2, stays in 0-3."""
        predictor = TournamentPredictor(BranchPredictorConfig())
        local = predictor._local_counters
        global_ = predictor._global_counters
        tables = (local, global_, predictor._chooser)
        assert all(set(table) == {2} for table in tables)
        # Weakly taken: a taken branch is predicted correctly.
        assert not predictor.update(0x400, True)
        # Once both histories are all ones, the local pattern (10 bits)
        # and the gshare index stop moving, so the same two entries take
        # every further update.
        all_taken_local, all_taken_global = 0x3FF, 0x100 ^ 0x1FFF
        for _ in range(39):
            predictor.update(0x400, True)
        assert local[all_taken_local] == global_[all_taken_global] == 3
        assert max(max(table) for table in tables) == 3
        predictor.update(0x400, False)           # one step down from 3
        assert local[all_taken_local] == global_[all_taken_global] == 2
        # All-zero histories pin the entries of the not-taken run.
        all_clear_local, all_clear_global = 0, 0x100
        for _ in range(40):
            predictor.update(0x400, False)
        assert local[all_clear_local] == global_[all_clear_global] == 0
        assert min(min(table) for table in tables) == 0
        # Predicted not taken, so a taken branch is mispredicted; it
        # trains one step up from 0.
        assert predictor.update(0x400, True)
        assert local[all_clear_local] == global_[all_clear_global] == 1

    def test_btb(self):
        """A taken branch whose target differs from its BTB entry is
        mispredicted, and the entry takes the new target; PCs that share
        an index share the entry."""
        predictor = TournamentPredictor(BranchPredictorConfig(btb_entries=16))
        assert predictor.update(0x400, True, 0x800)      # cold entry
        assert not predictor.update(0x400, True, 0x800)  # same target
        assert predictor.update(0x400, True, 0x900)      # new target
        assert not predictor.update(0x400, True, 0x900)
        # 0x440 is 16 words on: the same BTB index, another target.
        assert predictor.update(0x440, True, 0xA00)
        assert predictor.update(0x400, True, 0x900)
        # A not-taken branch leaves the entry alone.
        predictor.update(0x440, False, 0xA00)
        assert not predictor.update(0x400, True, 0x900)

    def test_predictor_learns_biased_branch(self):
        """Counters start weakly taken, so an always-taken branch is
        mispredicted once, by its cold BTB entry, whether or not they
        train; a never-taken one is mispredicted once only if they do."""
        taken = TournamentPredictor(BranchPredictorConfig())
        assert [taken.update(0x400, True, 0x800)
                for _ in range(100)] == [True] + [False] * 99
        never_taken = TournamentPredictor(BranchPredictorConfig())
        assert [never_taken.update(0x400, False, 0x800)
                for _ in range(100)] == [True] + [False] * 99

    def test_predictor_learns_alternating_pattern(self):
        predictor = TournamentPredictor(BranchPredictorConfig())
        outcomes = [bool(i % 2) for i in range(200)]
        mispredicts = sum(predictor.update(0x500, taken, 0x900)
                          for taken in outcomes)
        # A local-history tournament predictor learns a period-2 pattern.
        assert mispredicts < 40


class TestRetirementWindows:
    """A full ROB or load queue holds dispatch until its oldest entry
    commits.  Each case runs once with a tiny window and once with the
    Table 1 default, where nothing waits."""

    MISS = 0x10_0000
    WARM = 0x20_0000

    @staticmethod
    def _core(**pipeline):
        config = replace(SystemConfig(), core=PipelineConfig(**pipeline))
        return OutOfOrderCore(0, config, UnprotectedMemorySystem(config))

    def _rob_run(self, rob_entries):
        """A missing load, then two independent ALU ops: with two ROB
        entries the second ALU op dispatches when the load commits."""
        core = self._core(rob_entries=rob_entries)
        load_commit = core.execute_op(MicroOp(
            kind=OpKind.LOAD, pc=0x1000, address=self.MISS, dst_reg=1))
        core.execute_op(MicroOp(kind=OpKind.INT_ALU, pc=0x1004, dst_reg=2))
        core.execute_op(MicroOp(kind=OpKind.INT_ALU, pc=0x1008, dst_reg=3))
        return load_commit, core.register_ready_time(3)

    def test_full_rob_holds_dispatch_until_the_oldest_entry_commits(self):
        load_commit, ready = self._rob_run(rob_entries=2)
        # Dispatched at the load's commit, issued a cycle later, and done
        # after its one-cycle latency.
        assert ready == load_commit + 2
        load_commit, ready = self._rob_run(rob_entries=192)
        assert ready < load_commit

    def _load_queue_run(self, lq_entries):
        """Warm a line, miss on another once the first load is done, then
        reload the warm line: with one load-queue entry the reload
        dispatches when the miss commits."""
        core = self._core(lq_entries=lq_entries)
        core.execute_op(MicroOp(kind=OpKind.LOAD, pc=0x1000,
                                address=self.WARM, dst_reg=1))
        miss_commit = core.execute_op(MicroOp(
            kind=OpKind.LOAD, pc=0x1004, address=self.MISS, src_regs=(1,),
            dst_reg=2))
        core.execute_op(MicroOp(kind=OpKind.LOAD, pc=0x1008,
                                address=self.WARM, dst_reg=3))
        return miss_commit, core.register_ready_time(3)

    def test_full_load_queue_holds_dispatch_until_the_oldest_entry_commits(
            self):
        miss_commit, ready = self._load_queue_run(lq_entries=1)
        assert ready > miss_commit
        miss_commit, ready = self._load_queue_run(lq_entries=32)
        assert ready < miss_commit


def _simple_trace(n=400, miss_stride=None):
    ops = []
    pc = 0x1000
    for i in range(n):
        if i % 5 == 2:
            address = 0x10_0000 + (i * (miss_stride or 64)) % 4096
            ops.append(MicroOp(kind=OpKind.LOAD, pc=pc, address=address,
                               dst_reg=1))
        elif i % 9 == 4:
            ops.append(MicroOp(kind=OpKind.BRANCH, pc=pc, taken=i % 2 == 0,
                               target=pc + 64,
                               wrong_path=[WrongPathAccess(address=0x20_0000
                                                           + i * 64)]))
        elif i % 7 == 3:
            ops.append(MicroOp(kind=OpKind.STORE, pc=pc,
                               address=0x30_0000 + (i * 64) % 2048,
                               src_regs=(1,)))
        else:
            ops.append(MicroOp(kind=OpKind.INT_ALU, pc=pc, src_regs=(1,),
                               dst_reg=2))
        pc += 4
    return ops


class TestOutOfOrderCore:
    def test_runs_trace_and_reports_result(self):
        config = SystemConfig()
        core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
        result = core.run(_simple_trace())
        assert result.committed_instructions == 400
        assert result.cycles > 0
        assert 0 < result.ipc < config.core.width
        assert result.committed_loads > 0
        assert result.committed_stores > 0
        assert result.committed_branches > 0

    def test_commit_times_monotonic(self):
        config = SystemConfig()
        core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
        previous = 0
        for op in _simple_trace(200):
            commit_time = core.execute_op(op)
            assert commit_time >= previous
            previous = commit_time

    def test_mispredictions_generate_squashed_accesses(self):
        config = SystemConfig()
        core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
        result = core.run(_simple_trace(600))
        assert result.mispredictions > 0
        assert result.squashed_accesses > 0

    def test_memory_op_requires_address(self):
        with pytest.raises(ValueError):
            MicroOp(kind=OpKind.LOAD, pc=0x1000)

    def test_muontrap_core_commits_everything(self):
        config = SystemConfig()
        memory = MuonTrapMemorySystem(config)
        core = OutOfOrderCore(0, config, memory)
        result = core.run(_simple_trace(300))
        assert result.committed_instructions == 300
        # Commit-side write-through happened for the committed loads.
        assert memory.stats.get("committed_loads") == result.committed_loads

    def test_summarize_trace(self):
        summary = summarize_trace(_simple_trace(100))
        assert summary["total"] == 100
        assert summary["loads"] > 0
        assert abs(summary["load_fraction"] - summary["loads"] / 100) < 1e-9

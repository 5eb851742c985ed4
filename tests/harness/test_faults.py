"""Tests for the deterministic fault-injection plans (``REPRO_FAULTS``)."""

import pytest

from repro.cpu.core import CoreResult
from repro.harness.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    InjectedFault,
    active_fault_plan,
    parse_fault_specs,
    reset_fault_plan,
)
from repro.harness.store import open_store
from repro.sim.simulator import SimulationResult


@pytest.fixture(autouse=True)
def _fresh_plan_state(monkeypatch):
    """Isolate every test from the process-wide plan singleton."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_fault_plan()
    yield
    reset_fault_plan()


def make_result() -> SimulationResult:
    return SimulationResult(
        benchmark="hmmer", mode="muontrap", cycles=4242,
        instructions=600, warmup_cycles=21, stats={},
        core_results=[CoreResult(core_id=0, committed_instructions=600,
                                 cycles=4242, committed_loads=200,
                                 committed_stores=80,
                                 committed_branches=60, mispredictions=3,
                                 squashed_accesses=1, nack_retries=0)])


class TestParse:
    def test_single_clause_defaults_to_transient(self):
        specs = parse_fault_specs("exc:0.5:7")
        assert specs == (FaultSpec(kind="exc", rate=0.5, seed=7,
                                   attempts=1),)

    def test_attempts_field_is_honoured(self):
        (spec,) = parse_fault_specs("kill:1.0:3:99")
        assert spec.kind == "kill"
        assert spec.attempts == 99

    def test_multiple_clauses_and_whitespace(self):
        specs = parse_fault_specs(" exc:0.5:7 , hang:0.1:9 ,")
        assert [spec.kind for spec in specs] == ["exc", "hang"]

    def test_empty_input_is_no_plan(self):
        assert parse_fault_specs("") == ()

    @pytest.mark.parametrize("raw", [
        "exc:0.5",               # too few fields
        "exc:0.5:7:2:9",         # too many fields
        "meteor:0.5:7",          # unknown kind
        "exc:1.5:7",             # rate out of range
        "exc:-0.1:7",            # rate out of range
        "exc:lots:7",            # non-numeric rate
        "exc:0.5:many",          # non-numeric seed
        "exc:0.5:7:0",           # attempts below 1
    ])
    def test_malformed_specs_are_rejected(self, raw):
        with pytest.raises(FaultSpecError):
            parse_fault_specs(raw)


class TestDecide:
    KEYS = [f"cell-{index}" for index in range(64)]

    def test_decisions_are_pure_functions_of_seed_kind_key(self):
        plan = FaultPlan(parse_fault_specs("exc:0.5:7"))
        first = [plan.decide("exc", key) for key in self.KEYS]
        again = [plan.decide("exc", key) for key in self.KEYS]
        assert first == again
        assert any(first) and not all(first)  # rate 0.5 splits the keys

    def test_rate_bounds(self):
        never = FaultPlan(parse_fault_specs("exc:0.0:7"))
        always = FaultPlan(parse_fault_specs("exc:1.0:7"))
        assert not any(never.decide("exc", key) for key in self.KEYS)
        assert all(always.decide("exc", key) for key in self.KEYS)

    def test_attempt_gating_makes_faults_transient(self):
        plan = FaultPlan(parse_fault_specs("exc:1.0:7"))
        assert plan.decide("exc", "k", attempt=0)
        assert not plan.decide("exc", "k", attempt=1)
        persistent = FaultPlan(parse_fault_specs("exc:1.0:7:3"))
        assert persistent.decide("exc", "k", attempt=2)
        assert not persistent.decide("exc", "k", attempt=3)

    def test_kinds_are_independent(self):
        plan = FaultPlan(parse_fault_specs("exc:1.0:7"))
        assert not plan.decide("kill", "k")

    def test_seed_moves_the_faults(self):
        a = FaultPlan(parse_fault_specs("exc:0.5:1"))
        b = FaultPlan(parse_fault_specs("exc:0.5:2"))
        assert ([a.decide("exc", key) for key in self.KEYS]
                != [b.decide("exc", key) for key in self.KEYS])


class TestActivePlan:
    def test_unset_means_no_plan(self):
        assert active_fault_plan() is None

    def test_plan_follows_the_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "exc:0.5:7")
        plan = active_fault_plan()
        assert plan is not None
        assert plan.specs[0].kind == "exc"
        # Unchanged setting: same object (no rebuild per call).
        assert active_fault_plan() is plan
        monkeypatch.setenv(FAULTS_ENV, "kill:1.0:3")
        assert active_fault_plan().specs[0].kind == "kill"

    def test_malformed_environment_is_reported(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "bogus")
        with pytest.raises(FaultSpecError):
            active_fault_plan()


class TestApplyWorkerFaults:
    def test_exc_fault_raises_injected_fault(self):
        plan = FaultPlan(parse_fault_specs("exc:1.0:7"))
        with pytest.raises(InjectedFault):
            plan.apply_worker_faults("k", 0, kinds=("exc",))

    def test_retry_attempt_passes_clean(self):
        plan = FaultPlan(parse_fault_specs("exc:1.0:7"))
        plan.apply_worker_faults("k", 1, kinds=("exc",))  # no raise

    def test_kind_restriction_keeps_serial_callers_alive(self):
        # A kill fault outside the requested kinds must not fire: the
        # serial executor runs in the caller's process, where os._exit
        # would take down the campaign itself.
        plan = FaultPlan(parse_fault_specs("kill:1.0:5,hang:1.0:5"))
        plan.apply_worker_faults("k", 0, kinds=("exc",))  # returns


@pytest.mark.parametrize("backend", ["json", "sqlite"])
class TestCorruptStoreEntry:
    def test_corrupts_entry_and_store_evicts_it(self, tmp_path, backend):
        store = open_store(tmp_path, backend=backend)
        store.put("k", make_result())
        plan = FaultPlan(parse_fault_specs("corrupt:1.0:1"))
        assert plan.corrupt_store_entry(store, "k")
        # The torn entry fails the integrity check, is evicted (deleted)
        # and reads as a miss — one recomputation, never a wrong result.
        assert store.get("k") is None
        assert store.evictions == 1
        assert "k" not in store

    def test_rate_zero_leaves_entry_intact(self, tmp_path, backend):
        store = open_store(tmp_path, backend=backend)
        result = make_result()
        store.put("k", result)
        plan = FaultPlan(parse_fault_specs("corrupt:0.0:1"))
        assert not plan.corrupt_store_entry(store, "k")
        assert store.get("k") == result

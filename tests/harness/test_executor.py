"""Tests for the supervised executor layer (retry, quarantine, policy)."""

import json

import pytest

from repro.common.params import SystemConfig
from repro.harness import campaign as campaign_module
from repro.harness.campaign import ExecutionStats, RunSpec, execute_cells
from repro.harness.executor import (
    BACKOFF_CAP_SECONDS,
    CELL_TIMEOUT_ENV,
    CellExecutionError,
    DEFAULT_MAX_RETRIES,
    MAX_RETRIES_ENV,
    PoolExecutor,
    SerialExecutor,
    default_cell_timeout,
    default_max_retries,
    env_float,
    retry_backoff,
)
from repro.harness.faults import FAULTS_ENV, reset_fault_plan
from repro.harness.store import result_to_dict
from repro.sim.runner import unprotected_config
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 600


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (FAULTS_ENV, MAX_RETRIES_ENV, CELL_TIMEOUT_ENV):
        monkeypatch.delenv(name, raising=False)
    reset_fault_plan()
    yield
    reset_fault_plan()


def make_specs(benchmarks=("hmmer", "povray")):
    configs = [("baseline", unprotected_config()),
               ("MuonTrap", SystemConfig(mode="muontrap"))]
    return [RunSpec(profile=get_profile(benchmark), label=label,
                    config=config, instructions=INSTRUCTIONS, seed=1234)
            for benchmark in benchmarks for label, config in configs]


def dumps(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestPolicyDefaults:
    def test_env_float_unset_is_none(self):
        assert env_float(CELL_TIMEOUT_ENV) is None

    def test_env_float_parses_and_validates(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "2.5")
        assert env_float(CELL_TIMEOUT_ENV) == 2.5
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError, match=CELL_TIMEOUT_ENV):
            env_float(CELL_TIMEOUT_ENV)
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0")
        with pytest.raises(ValueError, match="greater than"):
            env_float(CELL_TIMEOUT_ENV)

    def test_default_max_retries(self, monkeypatch):
        assert default_max_retries() == DEFAULT_MAX_RETRIES
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        assert default_max_retries() == 5
        monkeypatch.setenv(MAX_RETRIES_ENV, "0")
        assert default_max_retries() == 0

    def test_default_cell_timeout(self, monkeypatch):
        assert default_cell_timeout() is None
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "1.5")
        assert default_cell_timeout() == 1.5

    def test_backoff_is_bounded_and_monotone(self):
        waits = [retry_backoff(attempt) for attempt in range(1, 12)]
        assert waits == sorted(waits)
        assert all(wait <= BACKOFF_CAP_SECONDS for wait in waits)
        assert waits[-1] == BACKOFF_CAP_SECONDS


class _Flaky:
    """A ``run_cell`` stand-in that fails the first ``failures`` calls
    per key, then delegates to the real implementation."""

    def __init__(self, failures: int = 1):
        self.failures = failures
        self.calls = {}
        self.real = campaign_module.run_cell

    def __call__(self, spec):
        key = spec.key()
        self.calls[key] = self.calls.get(key, 0) + 1
        if self.calls[key] <= self.failures:
            raise RuntimeError(f"flaky failure {self.calls[key]}")
        return self.real(spec)


class TestSerialExecutor:
    def run(self, executor, specs):
        completed, failed = {}, []
        stats = ExecutionStats()
        executor.execute(
            [(spec.key(), spec) for spec in specs], stats=stats,
            on_complete=lambda key, spec, result, secs:
                completed.__setitem__(key, result),
            on_failure=failed.append)
        return completed, failed, stats

    def test_transient_failures_are_retried_to_success(self, monkeypatch):
        specs = make_specs(benchmarks=("hmmer",))
        monkeypatch.setattr(campaign_module, "run_cell", _Flaky(failures=1))
        completed, failed, stats = self.run(SerialExecutor(max_retries=2),
                                            specs)
        assert sorted(completed) == sorted(spec.key() for spec in specs)
        assert not failed
        assert stats.retries == len(specs)
        assert stats.failed == 0

    def test_exhausted_retries_quarantine_the_cell(self, monkeypatch):
        specs = make_specs(benchmarks=("hmmer",))
        monkeypatch.setattr(campaign_module, "run_cell", _Flaky(failures=99))
        completed, failed, stats = self.run(SerialExecutor(max_retries=1),
                                            specs)
        assert not completed
        assert len(failed) == len(specs)
        assert stats.failed == len(specs)
        cell = failed[0]
        assert cell.attempts == 2  # initial try + 1 retry
        assert "flaky failure" in cell.error
        assert cell.benchmark == "hmmer"

    def test_zero_retries_fails_fast(self, monkeypatch):
        specs = make_specs(benchmarks=("hmmer",))[:1]
        monkeypatch.setattr(campaign_module, "run_cell", _Flaky(failures=1))
        completed, failed, stats = self.run(SerialExecutor(max_retries=0),
                                            specs)
        assert not completed
        assert len(failed) == 1
        assert stats.retries == 0


class TestPoolExecutor:
    def test_pool_matches_serial_byte_for_byte(self):
        specs = make_specs()
        tasks = [(spec.key(), spec) for spec in specs]
        by_executor = []
        for executor in (SerialExecutor(max_retries=0),
                         PoolExecutor(2, max_retries=0)):
            completed = {}
            executor.execute(tasks, stats=ExecutionStats(),
                             on_complete=lambda key, spec, result, secs:
                                 completed.__setitem__(key, result),
                             on_failure=lambda failure: None)
            by_executor.append(completed)
        serial, pooled = by_executor
        assert serial.keys() == pooled.keys()
        for key in serial:
            assert dumps(serial[key]) == dumps(pooled[key])


class TestExecuteCellsFailurePolicy:
    def test_failures_list_quarantines_without_raising(self, monkeypatch):
        specs = make_specs(benchmarks=("hmmer",))
        monkeypatch.setattr(campaign_module, "run_cell", _Flaky(failures=99))
        failures = []
        results = execute_cells(specs, jobs=1, max_retries=0,
                                failures=failures)
        assert results == {}
        assert len(failures) == len(specs)

    def test_no_failures_list_raises_cell_execution_error(self, monkeypatch):
        specs = make_specs(benchmarks=("hmmer",))[:1]
        monkeypatch.setattr(campaign_module, "run_cell", _Flaky(failures=99))
        with pytest.raises(CellExecutionError) as excinfo:
            execute_cells(specs, jobs=1, max_retries=0)
        assert len(excinfo.value.failures) == 1
        assert "hmmer" in str(excinfo.value)

    def test_mixed_outcome_completes_the_survivors(self, monkeypatch):
        specs = make_specs()
        doomed = specs[0].key()
        real = campaign_module.run_cell

        def selective(spec):
            if spec.key() == doomed:
                raise RuntimeError("permanent fault")
            return real(spec)

        monkeypatch.setattr(campaign_module, "run_cell", selective)
        failures = []
        results = execute_cells(specs, jobs=1, max_retries=1,
                                failures=failures)
        assert doomed not in results
        assert len(results) == len(specs) - 1
        assert [cell.key for cell in failures] == [doomed]

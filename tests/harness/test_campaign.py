"""Tests for campaign expansion, caching and parallel determinism."""

import json
import os

import pytest

from repro.common.params import SystemConfig
from repro.harness.campaign import (
    Campaign,
    ExecutionStats,
    RunSpec,
    derive_seed,
    execute_cells,
    materialize_shared_traces,
    run_cell,
)
from repro.harness.store import ResultStore, result_to_dict
from repro.sim.runner import unprotected_config
from repro.telemetry.metrics import MetricsSampler
from repro.telemetry.tracer import Tracer
from repro.workloads.generator import TraceGenerator, cached_workload
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 600

CONFIGS = {"MuonTrap": SystemConfig(mode="muontrap")}

BUILTIN_SCHEMES = ["unprotected", "insecure-l0", "muontrap",
                   "invisispec-spectre", "invisispec-future",
                   "stt-spectre", "stt-future"]


def make_campaign(store=None, jobs=1, benchmarks=("hmmer", "povray"),
                  replicates=1):
    return Campaign(list(benchmarks), configs=CONFIGS,
                    baseline_config=unprotected_config(),
                    instructions=INSTRUCTIONS, store=store, jobs=jobs,
                    replicates=replicates)


def record_generations(monkeypatch, path):
    """Log every trace generation, from any process, to ``path``.

    Patches :meth:`TraceGenerator.generate` (forked workers inherit the
    patch) to append one ``pid benchmark`` line per call, and empties this
    process's trace cache so that no worker inherits a generated trace and
    every lookup that misses generates.  Returns a function that reads the
    log back as ``(pid, benchmark)`` pairs.
    """
    real = TraceGenerator.generate

    def generate(self, *args, **kwargs):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()} {self.profile.name}\n")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TraceGenerator, "generate", generate)
    cached_workload.cache_clear()

    def records():
        if not path.exists():
            return []
        return [(int(pid), benchmark) for pid, benchmark
                in (line.split() for line in path.read_text().splitlines())]

    return records


class TestExpansion:
    def test_cells_cover_the_full_matrix(self):
        campaign = make_campaign(replicates=2)
        cells = campaign.cells()
        # 2 benchmarks x (1 config + baseline) x 2 seeds
        assert len(cells) == 8
        assert len({spec.key() for spec in cells}) == 8
        labels = {spec.label for spec in cells}
        assert labels == {"MuonTrap", "baseline"}

    def test_from_suites_resolves_and_sorts(self):
        campaign = Campaign.from_suites(
            ["swaptions", "blackscholes", "swaptions"], configs=CONFIGS,
            baseline_config=unprotected_config(),
            instructions=INSTRUCTIONS)
        assert campaign.benchmarks == ["blackscholes", "swaptions"]

    def test_replicate_seeds_are_stable_and_distinct(self):
        assert derive_seed(1234, 0) == 1234
        seeds = [derive_seed(1234, replicate) for replicate in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [derive_seed(1234, replicate)
                         for replicate in range(4)]

    def test_baseline_label_collision_rejected(self):
        with pytest.raises(ValueError):
            Campaign(["hmmer"], configs=CONFIGS,
                     baseline_config=unprotected_config(),
                     baseline_label="MuonTrap")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            Campaign([], configs=CONFIGS)
        with pytest.raises(ValueError):
            Campaign(["hmmer"], configs={})


class TestDeterminism:
    def test_parallel_results_byte_identical_to_sequential(self):
        sequential = make_campaign(jobs=1).run()
        parallel = make_campaign(jobs=2).run()
        assert sequential.runs.keys() == parallel.runs.keys()
        for key, result in sequential.runs.items():
            assert (json.dumps(result_to_dict(result), sort_keys=True)
                    == json.dumps(result_to_dict(parallel.runs[key]),
                                  sort_keys=True))
        assert sequential.geomeans() == parallel.geomeans()

    def test_parallel_and_sequential_stores_identical(self, tmp_path):
        store_seq = ResultStore(tmp_path / "seq")
        store_par = ResultStore(tmp_path / "par")
        make_campaign(store=store_seq, jobs=1).run()
        make_campaign(store=store_par, jobs=2).run()
        seq_keys = list(store_seq.keys())
        assert seq_keys == list(store_par.keys())
        for key in seq_keys:
            assert ((store_seq.root / f"{key}.json").read_text()
                    == (store_par.root / f"{key}.json").read_text())


class TestPooledTraceGeneration:
    def test_workers_generate_every_trace(self, monkeypatch, tmp_path):
        """The parent generates no trace; each worker generates the ones
        its cells need, and the results equal a serial run's."""
        serial = make_campaign(jobs=1).run()
        generations = record_generations(monkeypatch, tmp_path / "log")
        pooled = make_campaign(jobs=2).run()
        records = generations()
        assert os.getpid() not in {pid for pid, _ in records}
        assert {benchmark for _, benchmark in records} == {"hmmer", "povray"}
        # Two workloads, each kept on one worker; at most one tail steal.
        assert len(records) <= 3
        assert serial.runs.keys() == pooled.runs.keys()
        for key, result in serial.runs.items():
            assert (json.dumps(result_to_dict(result), sort_keys=True)
                    == json.dumps(result_to_dict(pooled.runs[key]),
                                  sort_keys=True))

    def test_pooled_run_leaves_the_parents_trace_cache_empty(
            self, monkeypatch, tmp_path):
        """No trace outlives the pool in the parent, so a long-lived
        process running many campaigns holds none of their traces."""
        record_generations(monkeypatch, tmp_path / "log")
        make_campaign(jobs=2).run()
        assert cached_workload.cache_info().currsize == 0

    def test_serial_run_generates_each_workload_once_in_process(
            self, monkeypatch, tmp_path):
        generations = record_generations(monkeypatch, tmp_path / "log")
        make_campaign(jobs=1).run()
        assert sorted(generations()) == [(os.getpid(), "hmmer"),
                                         (os.getpid(), "povray")]

    def test_summary_names_the_pool(self):
        summary = make_campaign(jobs=2).run().stats.summary()
        assert "on 2 worker(s)" in summary
        assert "shared with workers" not in summary

    def test_materialize_stub_generates_nothing(self, monkeypatch,
                                                tmp_path):
        generations = record_generations(monkeypatch, tmp_path / "log")
        requests = [(spec.profile, spec.instructions, spec.seed)
                    for spec in make_campaign().cells()]
        assert materialize_shared_traces(requests) == 0
        assert generations() == []
        assert cached_workload.cache_info().currsize == 0


class TestCaching:
    def test_second_run_serves_everything_from_store(self, tmp_path):
        store = ResultStore(tmp_path)
        first = make_campaign(store=store).run()
        assert first.stats.executed == first.stats.total == 4

        rerun = make_campaign(store=store).run()  # fresh campaign object
        assert rerun.stats.executed == 0
        assert rerun.stats.store_hits == 4
        assert rerun.stats.cached_fraction == 1.0
        assert rerun.geomeans() == first.geomeans()

    def test_in_memory_cache_hits_on_second_run(self, tmp_path):
        campaign = make_campaign()
        campaign.run()
        again = campaign.run()
        assert again.stats.executed == 0
        assert again.stats.memory_hits == 4

    def test_widening_a_sweep_is_incremental(self, tmp_path):
        store = ResultStore(tmp_path)
        make_campaign(store=store, benchmarks=("hmmer",)).run()
        widened = make_campaign(store=store,
                                benchmarks=("hmmer", "povray")).run()
        assert widened.stats.store_hits == 2   # hmmer baseline + MuonTrap
        assert widened.stats.executed == 2     # only the povray cells

    def test_execute_cells_dedups_identical_specs(self):
        spec = RunSpec(profile=get_profile("hmmer"), label="MuonTrap",
                       config=CONFIGS["MuonTrap"],
                       instructions=INSTRUCTIONS, seed=1)
        stats = ExecutionStats()
        results = execute_cells([spec, spec], jobs=1, stats=stats)
        assert stats.executed == 1
        assert results[spec.key()].cycles == run_cell(spec).cycles


class TestNormalisation:
    def test_normalised_matches_cycle_ratio(self):
        result = make_campaign().run()
        series = result.normalised()["MuonTrap"]
        for benchmark in ("hmmer", "povray"):
            baseline = result.result(benchmark, "baseline").cycles
            protected = result.result(benchmark, "MuonTrap").cycles
            assert series[benchmark] == pytest.approx(protected / baseline)
            assert series[benchmark] > 0


class TestInstrumentedRunCell:
    """``repro.api.simulate``'s traced and sampled runs go through
    ``run_cell`` too; attaching telemetry must not change the result."""

    @pytest.mark.parametrize("scheme", BUILTIN_SCHEMES)
    def test_tracer_and_sampler_leave_the_result_unchanged(self, scheme):
        spec = RunSpec(profile=get_profile("mcf"), label=scheme,
                       config=SystemConfig(mode=scheme),
                       instructions=INSTRUCTIONS, seed=7,
                       collect_stats=True)
        tracer = Tracer()
        sampler = MetricsSampler(100)
        instrumented = run_cell(spec, tracer=tracer, sampler=sampler)
        plain = run_cell(spec)
        assert len(tracer) > 0
        assert len(sampler.timeseries) > 0
        assert instrumented.cycles == plain.cycles
        assert instrumented.instructions == plain.instructions
        assert instrumented.warmup_cycles == plain.warmup_cycles
        assert instrumented.core_results == plain.core_results
        assert instrumented.stats == plain.stats

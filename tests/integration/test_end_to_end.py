"""End-to-end integration tests across the whole stack.

These are small versions of the paper's experiments: they run real workload
traces through the full simulator under several protection modes and check
the qualitative relationships the paper reports, plus the experiment and
table drivers used by the benchmark harness.
"""

import pytest

from repro import api
from repro.common.params import ProtectionConfig, SystemConfig
from repro.experiments.figures import figure3, figure4, figure7
from repro.experiments.security import run_security_evaluation
from repro.experiments.table1 import format_table1, table1_as_dict
from repro.harness import campaign
from repro.harness.store import ResultStore
from repro.sim.runner import standard_modes, unprotected_config

INSTRUCTIONS = 900


@pytest.fixture(scope="module")
def cache():
    """One in-memory result cache shared by every run in this module."""
    return {}


def cycles(benchmark, config, cache):
    return api.simulate(benchmark, config, instructions=INSTRUCTIONS,
                        cache=cache).cycles


class TestPerformanceRelationships:
    def test_every_mode_completes_a_spec_workload(self, cache):
        baseline = cycles("hmmer", unprotected_config(), cache)
        assert baseline > 0
        for label, config in standard_modes().items():
            ratio = cycles("hmmer", config, cache) / baseline
            assert 0.5 < ratio < 3.0, f"{label} ratio {ratio} implausible"

    def test_muontrap_cheaper_than_invisispec_future_on_parsec(self, cache):
        baseline = cycles("streamcluster", unprotected_config(num_cores=4),
                          cache)
        muontrap = cycles("streamcluster",
                          SystemConfig(mode="muontrap", num_cores=4), cache)
        invisispec = cycles(
            "streamcluster",
            SystemConfig(mode="invisispec-future", num_cores=4), cache)
        assert muontrap <= invisispec * 1.05
        assert baseline > 0

    def test_clear_on_misspeculate_costs_something(self, cache):
        base = SystemConfig(mode="muontrap")
        clearing = base.with_protection(
            ProtectionConfig(clear_on_misspeculate=True))
        normal = cycles("gobmk", base, cache)
        cleared = cycles("gobmk", clearing, cache)
        assert cleared >= normal * 0.97


class TestExperimentDrivers:
    def test_figure4_structure(self, cache):
        result = figure4(["swaptions", "blackscholes"],
                         instructions=INSTRUCTIONS, jobs=1, cache=cache)
        assert set(result.series) == set(standard_modes())
        assert set(result.benchmarks) == {"swaptions", "blackscholes"}
        assert all(value > 0 for series in result.series.values()
                   for value in series.values())
        table = result.format_table()
        assert "geomean" in table

    def test_figure7_rates_are_proportions(self, cache):
        result = figure7(["gcc", "lbm", "povray"],
                         instructions=INSTRUCTIONS, jobs=1, cache=cache)
        rates = result.series["write fcache-invalidate rate"]
        assert set(rates) == {"gcc", "lbm", "povray"}
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_figure_series_match_separate_simulations(self, cache):
        result = figure3(["hmmer"], instructions=INSTRUCTIONS, jobs=1,
                         cache=cache)
        baseline = cycles("hmmer", unprotected_config(), cache)
        assert set(result.series) == set(standard_modes())
        for label, config in standard_modes().items():
            assert result.series[label] == {
                "hmmer": cycles("hmmer", config, cache) / baseline}

    def test_figures_reuse_a_shared_cache(self, monkeypatch):
        shared = {}
        first = figure3(["hmmer"], instructions=INSTRUCTIONS, jobs=1,
                        cache=shared)
        assert len(shared) == len(standard_modes()) + 1  # plus the baseline

        def no_simulation(spec):
            raise AssertionError(f"{spec.label} was simulated again")

        monkeypatch.setattr(campaign, "run_cell", no_simulation)
        again = figure3(["hmmer"], instructions=INSTRUCTIONS, jobs=1,
                        cache=shared)
        assert again.series == first.series

    def test_figures_reuse_a_store_across_calls(self, tmp_path):
        store = ResultStore(tmp_path)
        first = figure3(["povray"], instructions=INSTRUCTIONS, jobs=1,
                        store=store)
        cells = len(store)
        assert cells == len(standard_modes()) + 1      # plus the baseline
        hits = store.hits
        again = figure3(["povray"], instructions=INSTRUCTIONS, jobs=1,
                        store=store)
        assert store.hits == hits + cells
        assert len(store) == cells
        assert again.series == first.series

    def test_parallel_figure_matches_sequential(self, cache):
        sequential = figure3(["hmmer", "povray"], instructions=INSTRUCTIONS,
                             jobs=1, cache=cache)
        parallel = figure3(["hmmer", "povray"], instructions=INSTRUCTIONS,
                           jobs=2)
        assert parallel.series == sequential.series
        assert parallel.geomeans == sequential.geomeans

    def test_figure7_matches_the_muontrap_statistics(self, cache):
        result = figure7(["gcc"], instructions=INSTRUCTIONS, jobs=1,
                         cache=cache)
        stats = api.simulate("gcc", "muontrap", instructions=INSTRUCTIONS,
                             warmup_fraction=0.0, collect_stats=True,
                             cache=cache).stats
        stores = stats["system.memory_system.committed_stores"]
        broadcasts = stats["system.memory_system.store_filter_broadcasts"]
        assert stores > 0
        assert result.series["write fcache-invalidate rate"] == {
            "gcc": broadcasts / stores}

    def test_table1_matches_configuration(self):
        entries = table1_as_dict()
        assert entries["Core count"] == "1 cores"
        assert "192-entry ROB" in entries["Pipeline"]
        assert "2MiB" in entries["L2 Cache"]
        assert "8-wide" in format_table1()


class TestSecurityEvaluation:
    def test_security_matrix_matches_paper_claims(self):
        matrix = run_security_evaluation()
        assert matrix.unprotected_leaks_everything
        assert matrix.muontrap_blocks_everything
        table = matrix.format_table()
        assert "LEAK" in table and "safe" in table

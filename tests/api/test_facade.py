"""The repro.api facade: resolution, simulate/compare/sweep, typed outcomes."""

import pytest

from repro import api
from repro.common.params import FilterCacheConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.generator import generate_workload
from repro.workloads.mixes import get_machine
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 800
SEED = 11


class TestResolveMachine:
    def test_none_is_the_table1_machine(self):
        assert api.resolve_machine(None) == SystemConfig()

    def test_system_config_passes_through(self):
        config = SystemConfig(num_cores=2)
        assert api.resolve_machine(config) is config

    def test_scheme_name(self):
        assert api.resolve_machine("stt-future") \
            == SystemConfig(mode="stt-future")

    def test_preset_name(self):
        assert api.resolve_machine("biglittle-asym") \
            == get_machine("biglittle-asym")

    def test_description_dict(self):
        assert api.resolve_machine({"num_cores": 2}) \
            == SystemConfig(num_cores=2)

    def test_machine_file_path(self, tmp_path):
        from repro.common.machine import save_machine
        path = save_machine(get_machine("asym-protect"),
                            tmp_path / "m.json")
        assert api.resolve_machine(str(path)) == get_machine("asym-protect")
        assert api.resolve_machine(path) == get_machine("asym-protect")

    def test_unknown_string_lists_the_options(self):
        with pytest.raises(ValueError, match="machine preset"):
            api.resolve_machine("definitely-not-a-machine")

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            api.resolve_machine(42)


class TestResolveWorkload:
    def test_benchmark_and_mix_names(self):
        assert api.resolve_workload("mcf").name == "mcf"
        assert api.resolve_workload("mix-quad").name == "mix-quad"

    def test_profile_objects_pass_through(self):
        profile = get_profile("mcf")
        assert api.resolve_workload(profile) is profile

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            api.resolve_workload("not-a-benchmark")

    def test_non_profile_object(self):
        with pytest.raises(TypeError, match="profile"):
            api.resolve_workload(3.14)


class TestSimulate:
    def test_bit_identical_to_the_manual_construction_path(self):
        outcome = api.simulate("mcf", "muontrap", seed=SEED,
                               instructions=INSTRUCTIONS,
                               warmup_fraction=0.25, collect_stats=True)
        profile = get_profile("mcf")
        workload = generate_workload(profile, INSTRUCTIONS, seed=SEED)
        system = build_system(SystemConfig(mode="muontrap"), seed=SEED)
        manual = Simulator(system).run(workload, collect_stats=True,
                                       warmup_fraction=0.25)
        assert outcome.cycles == manual.cycles
        assert outcome.instructions == manual.instructions
        assert outcome.result.stats == manual.stats

    def test_outcome_fields(self):
        outcome = api.simulate("mcf", seed=SEED, instructions=INSTRUCTIONS)
        assert outcome.benchmark == "mcf"
        assert outcome.machine == SystemConfig()
        assert outcome.seed == SEED
        assert outcome.instructions_requested == INSTRUCTIONS
        assert outcome.ipc == pytest.approx(
            outcome.instructions / outcome.cycles)
        assert outcome.time == pytest.approx(float(outcome.cycles))
        assert outcome.wall_seconds == pytest.approx(
            outcome.cycles / 2.0e9)

    def test_scheme_override_and_labels(self):
        outcome = api.simulate("mcf", scheme="stt-spectre", seed=SEED,
                               instructions=INSTRUCTIONS)
        assert outcome.label == "STT-Spectre"
        assert outcome.scheme == "stt-spectre"
        preset = api.simulate("mix-pointer-stream", "biglittle-asym",
                              seed=SEED, instructions=INSTRUCTIONS)
        assert preset.label == "biglittle-asym"

    def test_normalised_to(self):
        baseline = api.simulate("mcf", "unprotected", seed=SEED,
                                instructions=INSTRUCTIONS)
        protected = api.simulate("mcf", "muontrap", seed=SEED,
                                 instructions=INSTRUCTIONS)
        assert protected.normalised_to(baseline) == pytest.approx(
            protected.cycles / baseline.cycles)

    def test_machine_widened_to_the_workload(self):
        outcome = api.simulate("mix-quad", seed=SEED,
                               instructions=INSTRUCTIONS)
        assert len(outcome.result.core_benchmarks) == 4

    def test_store_and_cache_reuse(self, tmp_path):
        from repro.harness.store import ResultStore
        store = ResultStore(tmp_path)
        first = api.simulate("mcf", seed=SEED, instructions=INSTRUCTIONS,
                             store=store)
        assert len(store) == 1
        hits = store.hits
        again = api.simulate("mcf", seed=SEED, instructions=INSTRUCTIONS,
                             store=store)
        assert store.hits == hits + 1
        assert again.cycles == first.cycles


class TestCompare:
    def test_matches_separate_simulations(self):
        comparison = api.compare(["muontrap", "stt-spectre"], suite="mcf",
                                 seed=1234, instructions=INSTRUCTIONS)
        baseline = api.simulate("mcf", "unprotected", seed=1234,
                                instructions=INSTRUCTIONS)
        normalised = comparison.normalised()
        for label, scheme in (("MuonTrap", "muontrap"),
                              ("STT-Spectre", "stt-spectre")):
            outcome = api.simulate("mcf", scheme, seed=1234,
                                   instructions=INSTRUCTIONS)
            assert normalised[label]["mcf"] \
                == outcome.normalised_to(baseline)

    def test_accepts_mixed_series_and_mappings(self):
        comparison = api.compare(
            {"protected": "muontrap", "machine": "asym-protect"},
            suite="mcf", instructions=INSTRUCTIONS)
        assert sorted(comparison.labels) == ["machine", "protected"]

    def test_outcome_accessor_covers_the_baseline(self):
        comparison = api.compare(["muontrap"], suite="mcf",
                                 instructions=INSTRUCTIONS)
        cell = comparison.outcome("mcf", "MuonTrap")
        base = comparison.outcome("mcf", "baseline")
        assert cell.benchmark == "mcf"
        assert base.machine.mode == "unprotected"
        assert comparison.baseline_label == "baseline"

    def test_render_formats(self):
        comparison = api.compare(["muontrap"], suite="mcf",
                                 instructions=INSTRUCTIONS)
        assert "geomean" in comparison.render()
        assert comparison.render("csv").startswith("benchmark")

    def test_needs_at_least_one_series(self):
        with pytest.raises(ValueError, match="at least one"):
            api.compare([], suite="mcf")

    def test_colliding_series_labels_are_rejected(self):
        # Two distinct machines deriving the same label must not silently
        # collapse into one series.
        with pytest.raises(ValueError, match="same series label"):
            api.compare([SystemConfig(),
                         SystemConfig(num_cores=2)], suite="mcf")

    def test_custom_baseline_label_cannot_shadow_a_series(self):
        with pytest.raises(ValueError, match="shadows"):
            api.build_comparison({"MuonTrap": "muontrap"}, "mcf",
                                 baseline_label="MuonTrap")


class TestSweep:
    def test_filter_size_sweep(self):
        sweep = api.sweep("data_filter.size_bytes", [1024, 2048],
                          suite="mcf", scheme="muontrap",
                          instructions=INSTRUCTIONS)
        assert sweep.parameter == "data_filter.size_bytes"
        assert sweep.values == [1024, 2048]
        geomeans = sweep.geomeans()
        assert set(geomeans) == {"1024", "2048"}
        assert sweep.best_value() in (1024, 2048)
        # The swept field really is applied.
        config = sweep.comparison.campaign.configs["1024"]
        assert config.data_filter.size_bytes == 1024
        assert config.mode == "muontrap"

    def test_swept_value_matches_manual_config(self):
        sweep = api.sweep("data_filter.size_bytes", [1024], suite="mcf",
                          scheme="muontrap", instructions=INSTRUCTIONS)
        manual = api.simulate(
            "mcf",
            SystemConfig(mode="muontrap",
                         data_filter=FilterCacheConfig(size_bytes=1024)),
            seed=1234, instructions=INSTRUCTIONS)
        assert sweep.comparison.outcome("mcf", "1024").cycles \
            == manual.cycles

    def test_unknown_parameter_path(self):
        with pytest.raises(ValueError, match="no field"):
            api.sweep("data_filter.nope", [1], suite="mcf")

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            api.sweep("l2.associativity", [8, 8], suite="mcf")

    def test_sweep_reaches_explicit_per_core_lists(self):
        # Every machine preset carries an explicit cores list; a swept
        # CoreConfig-level field must land in those entries (which drive
        # construction), not only in the stale machine-level field.
        sweep = api.sweep("data_filter.size_bytes", [512, 4096],
                          suite="mcf", machine="asym-protect",
                          instructions=INSTRUCTIONS)
        for value in (512, 4096):
            config = sweep.comparison.campaign.configs[str(value)]
            assert config.data_filter.size_bytes == value
            assert all(core.data_filter.size_bytes == value
                       for core in config.cores)
        geomeans = sweep.geomeans()
        assert geomeans["512"] != geomeans["4096"]

    def test_sweep_of_the_machine_level_pipeline_reaches_cores(self):
        sweep_config = api._replace_path(
            api.resolve_machine("asym-protect"), "core.width", 4)
        assert sweep_config.core.width == 4
        assert all(core.pipeline.width == 4
                   for core in sweep_config.cores)

    def test_sweep_baseline_uses_the_swept_base_machine(self):
        sweep = api.sweep("l2.associativity", [8], suite="mcf",
                          machine="asym-protect",
                          instructions=INSTRUCTIONS)
        baseline = sweep.comparison.campaign.baseline_config
        # Same 2-core preset machine, under the baseline scheme — not the
        # 1-core Table 1 default.
        assert baseline.num_cores == 2
        assert set(baseline.core_schemes) == {"unprotected"}

"""Machine descriptions: lossless round-trips, schema errors, presets.

Seed-pinned property tests drive randomized ``SystemConfig``s — per-core
lists, heterogeneous scheme mixes, private L2s, custom scheme names —
through ``to_dict``/JSON/``from_dict`` and require bit-identical equality;
plus the unknown-key / version-mismatch error contract and the data-driven
machine presets.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.common.machine import (
    MACHINE_SCHEMA_VERSION,
    MachineFormatError,
    load_machine,
    machine_from_dict,
    machine_to_dict,
    save_machine,
)
from repro.common.params import (
    CacheConfig,
    CoreConfig,
    FilterCacheConfig,
    PipelineConfig,
    ProtectionConfig,
    ProtectionMode,
    SystemConfig,
    biglittle_system_config,
    corun_system_config,
    heterogeneous_corun_config,
)
from repro.workloads.mixes import MACHINE_PRESETS, get_machine, machine_names

SCHEMES = [mode.value for mode in ProtectionMode] + ["custom-scheme-x"]


def random_cache(rng, name):
    line = rng.choice([32, 64])
    lines = rng.choice([8, 16, 64, 256])
    assoc = rng.choice([way for way in (1, 2, 4, 8) if way <= lines])
    return CacheConfig(name=name, size_bytes=line * lines,
                       associativity=assoc, line_size=line,
                       hit_latency=rng.randint(1, 4),
                       mshrs=rng.randint(1, 8),
                       prefetcher=rng.choice([None, "stride", "next_line"]))


def random_core(rng, line_size):
    l1i = random_cache(rng, "l1i")
    l1i = replace(l1i, line_size=line_size,
                  size_bytes=line_size * l1i.num_lines)
    l1d = random_cache(rng, "l1d")
    l1d = replace(l1d, line_size=line_size,
                  size_bytes=line_size * l1d.num_lines)
    private_l2 = None
    if rng.random() < 0.5:
        private_l2 = random_cache(rng, "l2p")
        private_l2 = replace(private_l2, line_size=line_size,
                             size_bytes=line_size * private_l2.num_lines)
    return CoreConfig(
        mode=rng.choice(SCHEMES),
        pipeline=PipelineConfig(
            width=rng.choice([2, 4, 8]),
            rob_entries=rng.choice([64, 192]),
            frequency_ghz=rng.choice([1.2, 2.0, 3.5])),
        l1i=l1i, l1d=l1d, private_l2=private_l2,
        data_filter=FilterCacheConfig(
            size_bytes=rng.choice([1024, 2048]),
            associativity=rng.choice([2, 4])),
        protection=random_protection(rng))


def random_protection(rng):
    fields = {name: rng.random() < 0.5 for name in (
        "data_filter_cache", "instruction_filter_cache", "filter_tlb",
        "coherence_protection", "commit_time_prefetch",
        "clear_on_misspeculate", "clear_on_context_switch",
        "parallel_l1_access", "insecure_scoped_invalidate")}
    return ProtectionConfig(**fields)


def random_system(rng):
    line_size = rng.choice([32, 64])
    l2 = random_cache(rng, "l2")
    l2 = replace(l2, line_size=line_size,
                 size_bytes=line_size * l2.num_lines)
    num_cores = rng.randint(1, 4)
    config = SystemConfig(
        mode=rng.choice(SCHEMES),
        num_cores=num_cores,
        l2=l2,
        l1i=replace(random_cache(rng, "l1i"), line_size=line_size),
        l1d=replace(random_cache(rng, "l1d"), line_size=line_size),
        protection=random_protection(rng))
    if rng.random() < 0.5:
        cores = []
        for _ in range(num_cores):
            core = random_core(rng, line_size)
            cores.append(core)
        config = config.with_core_configs(cores)
    return config


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(40))
    def test_randomised_system_configs_round_trip_bit_identically(self, seed):
        rng = random.Random(0xC0FFEE + seed)
        config = random_system(rng)
        payload = machine_to_dict(config)
        recovered = machine_from_dict(json.loads(json.dumps(payload)))
        assert recovered == config
        # A second trip is a fixed point.
        assert machine_to_dict(recovered) == payload

    def test_presets_round_trip(self):
        for name in machine_names():
            config = get_machine(name)
            assert machine_from_dict(machine_to_dict(config)) == config

    def test_hetero_mix_round_trips_with_custom_scheme_names(self):
        config = heterogeneous_corun_config(
            ["muontrap", "custom-scheme-x"])
        recovered = machine_from_dict(
            json.loads(json.dumps(machine_to_dict(config))))
        assert recovered == config
        assert recovered.core_schemes == ("muontrap", "custom-scheme-x")

    def test_core_and_protection_configs_round_trip(self):
        core = CoreConfig(mode="stt-future",
                          private_l2=CacheConfig(name="l2p",
                                                 size_bytes=1024,
                                                 associativity=2))
        assert CoreConfig.from_dict(core.to_dict()) == core
        protection = ProtectionConfig(clear_on_misspeculate=True)
        assert ProtectionConfig.from_dict(protection.to_dict()) == protection

    def test_exported_parts_compose_into_a_machine(self):
        # CoreConfig.to_dict() / ProtectionConfig.to_dict() stamp a
        # schema_version; embedding them in a larger description must
        # accept (and validate) that stamp.
        core = CoreConfig(mode="stt-future")
        config = machine_from_dict({"num_cores": 1,
                                    "cores": [core.to_dict()]})
        assert config.cores == (core,)
        protection = ProtectionConfig(clear_on_misspeculate=True)
        config = machine_from_dict({"protection": protection.to_dict()})
        assert config.protection == protection
        with pytest.raises(MachineFormatError,
                           match=r"cores\[0\].*schema_version 99"):
            machine_from_dict({"num_cores": 1,
                               "cores": [{"schema_version": 99}]})

    def test_builtin_mode_normalises_to_enum_custom_stays_string(self):
        config = machine_from_dict({"mode": "muontrap"})
        assert config.mode is ProtectionMode.MUONTRAP
        config = machine_from_dict({"mode": "my-scheme"})
        assert config.mode == "my-scheme"


class TestPartialDescriptions:
    def test_missing_keys_take_table1_defaults(self):
        assert machine_from_dict({}) == SystemConfig()

    def test_nested_partial_merges_with_defaults(self):
        config = machine_from_dict(
            {"protection": {"insecure_scoped_invalidate": True}})
        expected = replace(ProtectionConfig(), insecure_scoped_invalidate=True)
        assert config.protection == expected


class TestErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(MachineFormatError, match="'modee'"):
            machine_from_dict({"modee": "muontrap"})

    def test_unknown_nested_key_names_the_path(self):
        with pytest.raises(MachineFormatError,
                           match=r"SystemConfig\.cores\[0\].*'bogus'"):
            machine_from_dict({"num_cores": 1,
                               "cores": [{"bogus": 1}]})

    def test_version_mismatch(self):
        with pytest.raises(MachineFormatError, match="schema_version 99"):
            machine_from_dict({"schema_version": 99})

    def test_wrong_shape(self):
        with pytest.raises(MachineFormatError, match="mapping"):
            machine_from_dict([1, 2, 3])
        with pytest.raises(MachineFormatError, match="expected a list"):
            machine_from_dict({"num_cores": 1, "cores": {"mode": "x"}})
        with pytest.raises(MachineFormatError, match="name string"):
            machine_from_dict({"mode": 7})

    def test_domain_validation_errors_carry_the_context(self):
        with pytest.raises(MachineFormatError, match="SystemConfig"):
            machine_from_dict({"num_cores": 0})

    def test_versioned_output(self):
        assert machine_to_dict(SystemConfig())["schema_version"] \
            == MACHINE_SCHEMA_VERSION


def legacy_machine_dict(config):
    """``config`` as the previous release's ``to_dict()`` wrote it: every
    current key plus the since-retired engine switch."""
    return {**machine_to_dict(config), "use_vectorized": True}


class TestRetiredKeys:
    def test_retired_engine_key_is_ignored(self):
        config = get_machine("biglittle-asym")
        assert machine_from_dict(legacy_machine_dict(config)) == config

    def test_legacy_machine_file_loads(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy_machine_dict(SystemConfig())))
        assert load_machine(path) == SystemConfig()

    def test_retired_key_is_unknown_below_the_top_level(self):
        payload = machine_to_dict(SystemConfig())
        payload["core"]["use_vectorized"] = True
        with pytest.raises(MachineFormatError, match="use_vectorized"):
            machine_from_dict(payload)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        config = get_machine("biglittle-asym")
        path = save_machine(config, tmp_path / "machine.json")
        assert load_machine(path) == config

    def test_load_errors_name_the_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(MachineFormatError, match="nope.json"):
            load_machine(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MachineFormatError, match="not valid JSON"):
            load_machine(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"modee": 1}))
        with pytest.raises(MachineFormatError, match="wrong.json"):
            load_machine(wrong)

    def test_checked_in_example_machine_matches_the_preset(self):
        from pathlib import Path
        example = Path(__file__).resolve().parents[2] \
            / "examples" / "machines" / "biglittle-asym.json"
        assert load_machine(example) == get_machine("biglittle-asym")


class TestPresetsAsData:
    """The named presets are data; they must equal the historical
    constructor-built machines bit for bit."""

    def test_presets_equal_constructor_built_machines(self):
        expected = {
            "biglittle-muontrap": biglittle_system_config(
                [ProtectionMode.MUONTRAP], [ProtectionMode.MUONTRAP]),
            "biglittle-asym": biglittle_system_config(
                [ProtectionMode.MUONTRAP], [ProtectionMode.UNPROTECTED]),
            "asym-protect": heterogeneous_corun_config(
                [ProtectionMode.MUONTRAP, ProtectionMode.UNPROTECTED]),
        }
        scoped = corun_system_config(ProtectionMode.MUONTRAP, num_cores=2)
        expected["scoped-invalidate"] = scoped.with_protection(
            replace(scoped.protection, insecure_scoped_invalidate=True))
        assert sorted(MACHINE_PRESETS) == sorted(expected)
        for name, config in expected.items():
            assert get_machine(name) == config, name

    def test_preset_data_is_json_ready(self):
        for name, data in MACHINE_PRESETS.items():
            assert machine_from_dict(json.loads(json.dumps(data))) \
                == get_machine(name)

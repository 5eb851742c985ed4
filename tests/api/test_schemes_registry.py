"""The scheme registry: builtins, capability flags, runtime registration.

The acceptance bar for the registry redesign: a scheme registered from a
test file — no edits under ``src/repro/baselines/`` or ``sim/hetero.py`` —
runs end-to-end through ``repro.api.simulate`` and appears in
``python -m repro schemes``.
"""

import pytest

from repro import api
from repro.__main__ import main as cli_main
from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import ProtectionConfig, SystemConfig
from repro.schemes import (
    SchemeSpec,
    UnknownSchemeError,
    available_schemes,
    figure_series_schemes,
    get_scheme,
    is_registered,
    register_scheme,
    scheme_config,
    scheme_names,
    unregister_scheme,
)
from repro.sim.system import build_memory_system

BUILTIN_ORDER = [
    "unprotected", "insecure-l0", "muontrap",
    "invisispec-spectre", "invisispec-future",
    "stt-spectre", "stt-future",
]


class SlowFrontDoorMemorySystem(UnprotectedMemorySystem):
    """A toy custom scheme: the unprotected hierarchy, renamed."""

    name = "slow-front-door"


@pytest.fixture
def custom_scheme():
    spec = register_scheme(SchemeSpec(
        name="slow-front-door",
        factory=SlowFrontDoorMemorySystem,
        display_name="SlowFrontDoor",
        description="test-only scheme registered from the test suite",
        timing_invariant=True))
    yield spec
    unregister_scheme("slow-front-door")


class TestBuiltins:
    def test_seven_builtins_in_canonical_order(self):
        names = [spec.name for spec in available_schemes()
                 if spec.builtin]
        assert names == BUILTIN_ORDER

    def test_figure_series_is_the_five_schemes_of_figures_3_and_4(self):
        assert [spec.name for spec in figure_series_schemes()] == [
            "muontrap", "invisispec-spectre", "invisispec-future",
            "stt-spectre", "stt-future"]

    def test_capability_flags_of_the_builtins(self):
        # name: (filter caches, delays transmitters, speculative buffers)
        expected = {
            "unprotected": (False, False, False),
            "insecure-l0": (True, False, False),
            "muontrap": (True, False, False),
            "invisispec-spectre": (False, False, True),
            "invisispec-future": (False, False, True),
            "stt-spectre": (False, True, False),
            "stt-future": (False, True, False),
        }
        for name, flags in expected.items():
            spec = get_scheme(name)
            assert (spec.supports_filter_caches, spec.delays_transmitters,
                    spec.uses_speculative_buffers) == flags, name

    def test_lookup_is_by_name_string_only(self):
        assert get_scheme("muontrap").name == "muontrap"
        with pytest.raises(UnknownSchemeError, match="unknown"):
            get_scheme(7)

    def test_unknown_scheme_is_a_value_error_naming_the_registry(self):
        with pytest.raises(UnknownSchemeError, match="no-such-scheme"):
            get_scheme("no-such-scheme")
        with pytest.raises(ValueError, match="muontrap"):
            get_scheme("no-such-scheme")

    def test_builtins_cannot_be_replaced_or_unregistered(self):
        with pytest.raises(ValueError, match="built-in"):
            register_scheme(SchemeSpec(name="muontrap", factory=object))
        with pytest.raises(ValueError, match="built-in"):
            unregister_scheme("muontrap")

    def test_variant_factories_build_the_right_variant(self):
        future = build_memory_system(SystemConfig(mode="stt-future"))
        spectre = build_memory_system(SystemConfig(mode="stt-spectre"))
        assert future.future_variant and not spectre.future_variant
        invisi = build_memory_system(SystemConfig(mode="invisispec-future"))
        assert invisi.future_variant


class TestRegistration:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            SchemeSpec(name="", factory=object)
        with pytest.raises(ValueError, match="whitespace"):
            SchemeSpec(name="two words", factory=object)
        with pytest.raises(ValueError, match="callable"):
            SchemeSpec(name="x", factory=42)

    def test_display_name_defaults_to_the_name(self):
        assert SchemeSpec(name="x", factory=object).display_name == "x"

    def test_duplicate_registration_requires_replace(self, custom_scheme):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(SchemeSpec(name="slow-front-door",
                                       factory=object))
        register_scheme(SchemeSpec(name="slow-front-door",
                                   factory=SlowFrontDoorMemorySystem),
                        replace=True)

    def test_unregister_unknown_is_a_no_op(self):
        unregister_scheme("never-registered")

    def test_scheme_config_applies_default_protection(self):
        spec = register_scheme(SchemeSpec(
            name="bare-l0", factory=SlowFrontDoorMemorySystem,
            default_protection=ProtectionConfig.none()))
        try:
            config = scheme_config("bare-l0", num_cores=2)
            assert config.protection == ProtectionConfig.none()
            assert config.num_cores == 2
            assert scheme_config("muontrap").protection == ProtectionConfig()
        finally:
            unregister_scheme("bare-l0")


class TestCustomSchemeEndToEnd:
    def test_custom_mode_stays_a_string_in_configs(self, custom_scheme):
        config = SystemConfig(mode="slow-front-door")
        assert config.mode == "slow-front-door"
        assert config.mode_label == "slow-front-door"
        assert not config.is_scheme_heterogeneous

    def test_runs_through_api_simulate(self, custom_scheme):
        outcome = api.simulate("povray", "slow-front-door", seed=3,
                               instructions=600)
        assert outcome.label == "SlowFrontDoor"
        assert outcome.scheme == "slow-front-door"
        assert outcome.cycles > 0
        # The custom scheme is the unprotected hierarchy under a new name:
        # same trace, same seed, bit-identical timing.
        reference = api.simulate("povray", "unprotected", seed=3,
                                 instructions=600)
        assert outcome.cycles == reference.cycles

    def test_runs_heterogeneously_beside_a_builtin(self, custom_scheme):
        machine = SystemConfig(num_cores=2).with_mode(
            "muontrap").as_heterogeneous()
        cores = (machine.cores[0], machine.cores[1].with_mode(
            "slow-front-door"))
        machine = machine.with_core_configs(cores)
        assert machine.is_scheme_heterogeneous
        assert machine.mode_label == "muontrap+slow-front-door"
        outcome = api.simulate("mix-pointer-stream", machine, seed=3,
                               instructions=600)
        assert outcome.cycles > 0

    def test_appears_in_cli_schemes_listing(self, custom_scheme, capsys):
        assert cli_main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "slow-front-door (SlowFrontDoor) [registered]" in out
        assert "timing-invariant" in out
        for name in BUILTIN_ORDER:
            assert name in out

    def test_sweepable_from_the_command_line(self, custom_scheme, capsys,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "600")
        assert cli_main(["run", "--suite", "povray",
                         "--mode", "slow-front-door",
                         "--no-store", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "SlowFrontDoor" in out

    def test_unknown_mode_is_a_one_line_cli_error(self, capsys):
        assert cli_main(["run", "--suite", "povray",
                         "--mode", "not-a-scheme", "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "unknown protection scheme" in err


class TestNames:
    def test_scheme_names_cover_builtins(self):
        names = scheme_names()
        for name in BUILTIN_ORDER:
            assert name in names

    def test_is_registered(self, custom_scheme):
        assert is_registered("muontrap")
        assert is_registered("stt-future")
        assert is_registered("slow-front-door")
        assert not is_registered("nope")

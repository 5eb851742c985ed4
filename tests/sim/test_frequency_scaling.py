"""Per-core frequency as a real cycle-time multiplier (ROADMAP follow-up).

``PipelineConfig.frequency_ghz`` was previously recorded but never applied
to timing.  It now scales the *reported* per-core wall-clock and
normalised times: at identical cycle counts, a core clocked 2× faster
reports exactly 2× lower time.  Cycle counts themselves are untouched, so
all historical cycle-pinned results stay bit-identical.
"""

from dataclasses import replace

import pytest

from repro import api
from repro.common.params import SystemConfig
from repro.harness.campaign import Campaign
from repro.sim.simulator import (
    REFERENCE_FREQUENCY_GHZ,
    SimulationResult,
)

INSTRUCTIONS = 800
SEED = 5


def with_frequency(config: SystemConfig, frequency: float) -> SystemConfig:
    return replace(config, core=replace(config.core,
                                        frequency_ghz=frequency))


class TestFrequencyScaling:
    def test_double_frequency_halves_reported_time_at_equal_cycles(self):
        base = api.simulate("mcf", SystemConfig(), seed=SEED,
                            instructions=INSTRUCTIONS)
        fast = api.simulate("mcf", with_frequency(SystemConfig(), 4.0),
                            seed=SEED, instructions=INSTRUCTIONS)
        # The clock does not change the microarchitectural cycle count...
        assert fast.cycles == base.cycles
        # ...but the reported time is exactly halved.
        assert fast.time == base.time / 2
        assert fast.wall_seconds == base.wall_seconds / 2
        assert fast.result.core_wall_seconds()[0] \
            == base.result.core_wall_seconds()[0] / 2

    def test_outcome_normalised_to_divides_time_not_cycles(self):
        base = api.simulate("mcf", SystemConfig(), seed=SEED,
                            instructions=INSTRUCTIONS)
        fast = api.simulate("mcf", with_frequency(SystemConfig(), 4.0),
                            seed=SEED, instructions=INSTRUCTIONS)
        assert fast.cycles == base.cycles
        assert fast.normalised_to(base) == 0.5
        assert base.normalised_to(fast) == 2.0

    def test_reference_frequency_time_equals_cycles(self):
        outcome = api.simulate("mcf", seed=SEED, instructions=INSTRUCTIONS)
        assert outcome.result.core_frequencies_ghz \
            == [REFERENCE_FREQUENCY_GHZ]
        assert outcome.time == float(outcome.cycles)

    def test_normalised_comparison_credits_the_faster_clock(self):
        campaign = Campaign(
            ["mcf"],
            configs={"fast": with_frequency(SystemConfig(), 4.0)},
            baseline_config=SystemConfig(mode="unprotected"),
            instructions=INSTRUCTIONS, seed=SEED)
        normalised = campaign.run().normalised()["fast"]["mcf"]
        same_clock = Campaign(
            ["mcf"], configs={"same": SystemConfig()},
            baseline_config=SystemConfig(mode="unprotected"),
            instructions=INSTRUCTIONS, seed=SEED)
        reference = same_clock.run().normalised()["same"]["mcf"]
        assert normalised == pytest.approx(reference / 2)

    def test_per_constituent_times_scale_per_core(self):
        # big.LITTLE: the LITTLE core runs at 1.2 GHz, so its reported
        # time exceeds its cycle count by the clock ratio.
        outcome = api.simulate("mix-pointer-stream", "biglittle-muontrap",
                               seed=SEED, instructions=INSTRUCTIONS)
        result = outcome.result
        assert result.core_frequencies_ghz == [2.0, 1.2]
        times = result.core_times()
        warmups = list(result.core_warmup_cycles) \
            + [0] * (len(result.core_results) - len(result.core_warmup_cycles))
        for core, warmup, frequency, time in zip(
                result.core_results, warmups,
                result.core_frequencies_ghz, times):
            assert time == pytest.approx(
                (core.cycles - warmup) * REFERENCE_FREQUENCY_GHZ / frequency)
        parts = result.per_benchmark()
        for part in parts.values():
            assert part.core_frequencies_ghz
            assert part.time == max(part.core_times())

    def test_synthetic_results_default_to_the_reference_clock(self):
        # Results constructed without frequencies (older stored payloads,
        # hand-built fixtures) keep the historical cycles == time identity.
        result = SimulationResult(benchmark="x", mode="muontrap",
                                  cycles=1000, instructions=500)
        assert result.time == 1000.0
        assert result.wall_seconds == pytest.approx(1000 / 2.0e9)

"""Mix-aware reporting: attribution, permutation invariance, geomeans.

Seed-pinned property tests over randomised campaign results: the
per-constituent attribution of a co-run result must account for exactly
the machine totals, the normalised tables must not depend on which core a
constituent happened to land on, and every geometric mean the harness
reports must match an independent reference computation.
"""

import math
import random

import pytest

from repro.cpu.core import CoreResult
from repro.harness.campaign import Campaign, CampaignResult
from repro.harness.report import GEOMEAN_ROW, Report
from repro.sim.simulator import SimulationResult
from repro.workloads.mixes import get_machine

SEEDS = [0, 1, 2, 3]

BENCHMARK_POOL = ["mcf", "lbm", "omnetpp", "libquantum", "povray"]


def _random_corun_result(rng: random.Random, benchmark: str,
                         mode: str = "muontrap",
                         with_warmup: bool = False) -> SimulationResult:
    """A synthetic co-run result with the simulator's aggregate accounting."""
    num_cores = rng.randint(2, 6)
    owners = [rng.choice(BENCHMARK_POOL) for _ in range(num_cores)]
    warm_cycles = [rng.randint(50, 200) if with_warmup else 0
                   for _ in range(num_cores)]
    warm_instructions = [rng.randint(20, 80) if with_warmup else 0
                         for _ in range(num_cores)]
    cores = [CoreResult(core_id=core_id,
                        committed_instructions=rng.randint(200, 900),
                        cycles=warm + rng.randint(500, 5000))
             for core_id, warm in enumerate(warm_cycles)]
    cycles = max(core.cycles - warm
                 for core, warm in zip(cores, warm_cycles))
    instructions = sum(core.committed_instructions - warm
                       for core, warm in zip(cores, warm_instructions))
    return SimulationResult(
        benchmark=benchmark, mode=mode, cycles=cycles,
        instructions=instructions, core_results=cores,
        core_benchmarks=owners,
        core_warmup_cycles=warm_cycles if with_warmup else [],
        core_warmup_instructions=warm_instructions if with_warmup else [])


def _permuted(result: SimulationResult,
              order: list) -> SimulationResult:
    """The same machine result with its cores listed in another order."""
    warm_cycles = (result.core_warmup_cycles
                   or [0] * len(result.core_results))
    warm_instructions = (result.core_warmup_instructions
                         or [0] * len(result.core_results))
    return SimulationResult(
        benchmark=result.benchmark, mode=result.mode, cycles=result.cycles,
        instructions=result.instructions,
        core_results=[result.core_results[index] for index in order],
        core_benchmarks=[result.core_benchmarks[index] for index in order],
        core_warmup_cycles=([warm_cycles[index] for index in order]
                            if result.core_warmup_cycles else []),
        core_warmup_instructions=(
            [warm_instructions[index] for index in order]
            if result.core_warmup_instructions else []))


def _synthetic_campaign(rng: random.Random, with_warmup: bool = False
                        ) -> CampaignResult:
    """A campaign over random mixes: one baseline plus two scheme labels."""
    benchmarks = ["mix-a", "mix-b", "mix-c"]
    labels = ["baseline", "MuonTrap", "STT"]
    runs = {}
    for benchmark in benchmarks:
        # All labels of one benchmark share the placement (same workload),
        # exactly as a real campaign's constant-trace methodology does.
        template = _random_corun_result(rng, benchmark,
                                        with_warmup=with_warmup)
        for label in labels:
            scale = 1.0 if label == "baseline" else rng.uniform(0.9, 2.0)
            cores = [CoreResult(core_id=core.core_id,
                                committed_instructions=core.committed_instructions,
                                cycles=int(core.cycles * scale) + 1)
                     for core in template.core_results]
            warm = (template.core_warmup_cycles
                    or [0] * len(cores))
            warm_instructions = (template.core_warmup_instructions
                                 or [0] * len(cores))
            runs[(benchmark, label, 0)] = SimulationResult(
                benchmark=benchmark, mode=label, cycles=max(
                    core.cycles - w for core, w in zip(cores, warm)),
                instructions=template.instructions,
                core_results=cores,
                core_benchmarks=list(template.core_benchmarks),
                core_warmup_cycles=list(template.core_warmup_cycles),
                core_warmup_instructions=list(
                    template.core_warmup_instructions))
    return CampaignResult(benchmarks=benchmarks,
                          labels=["MuonTrap", "STT", "baseline"],
                          baseline_label="baseline", seeds=[0], runs=runs)


class TestAttributionSumsToMachineTotals:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_warmup", [False, True],
                             ids=["cold", "warmup"])
    def test_parts_account_for_the_aggregate(self, seed, with_warmup):
        rng = random.Random(seed)
        for _ in range(25):
            result = _random_corun_result(rng, "mix-x",
                                          with_warmup=with_warmup)
            parts = result.per_benchmark()
            assert set(parts) == set(result.core_benchmarks)
            assert result.cycles == max(part.cycles
                                        for part in parts.values())
            assert result.instructions == sum(part.instructions
                                              for part in parts.values())
            # Every core is attributed to exactly one constituent.
            assert sum(len(part.core_results)
                       for part in parts.values()) == len(
                           result.core_results)


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_benchmark_is_core_order_invariant(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            result = _random_corun_result(rng, "mix-x", with_warmup=True)
            order = list(range(len(result.core_results)))
            rng.shuffle(order)
            shuffled = _permuted(result, order)
            original = {name: (part.cycles, part.instructions)
                        for name, part in result.per_benchmark().items()}
            permuted = {name: (part.cycles, part.instructions)
                        for name, part in shuffled.per_benchmark().items()}
            assert original == permuted

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalised_tables_are_core_order_invariant(self, seed):
        rng = random.Random(seed)
        campaign = _synthetic_campaign(rng)
        reference = campaign.per_constituent_normalised()
        # Permute every machine's cores consistently per benchmark (the
        # same workload placement permutation for all labels, as one
        # scheduler decision would produce).
        permuted_runs = {}
        orders = {}
        for (benchmark, label, seed_key), result in campaign.runs.items():
            if benchmark not in orders:
                order = list(range(len(result.core_results)))
                rng.shuffle(order)
                orders[benchmark] = order
            permuted_runs[(benchmark, label, seed_key)] = _permuted(
                result, orders[benchmark])
        permuted = CampaignResult(
            benchmarks=campaign.benchmarks, labels=campaign.labels,
            baseline_label=campaign.baseline_label, seeds=campaign.seeds,
            runs=permuted_runs).per_constituent_normalised()
        assert reference == permuted


class TestGeomeansMatchReference:
    @staticmethod
    def _reference_geomean(values):
        positive = [value for value in values if value > 0]
        if not positive:
            return 0.0
        return math.exp(sum(math.log(value) for value in positive)
                        / len(positive))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_campaign_geomeans(self, seed):
        campaign = _synthetic_campaign(random.Random(seed))
        for label, values in campaign.normalised().items():
            expected = self._reference_geomean(values.values())
            assert campaign.geomeans()[label] == pytest.approx(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_constituent_geomeans(self, seed):
        campaign = _synthetic_campaign(random.Random(seed))
        series = campaign.per_constituent_normalised()
        geomeans = campaign.per_constituent_geomeans()
        for label, values in series.items():
            expected = self._reference_geomean(values.values())
            assert geomeans[label] == pytest.approx(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_report_footer_matches_reference(self, seed):
        campaign = _synthetic_campaign(random.Random(seed))
        report = Report.from_campaign_constituents(campaign)
        rows = report.rows()
        assert rows[-1][0] == GEOMEAN_ROW
        for column, label in enumerate(report.labels, start=1):
            expected = self._reference_geomean(
                campaign.per_constituent_normalised()[label].values())
            assert float(rows[-1][column]) == pytest.approx(expected,
                                                            abs=5e-4)


class TestConstituentReportShape:
    def test_rows_follow_benchmark_then_placement_order(self):
        campaign = _synthetic_campaign(random.Random(7))
        report = Report.from_campaign_constituents(campaign)
        prefixes = [row.split(":", 1)[0] for row in report.benchmarks]
        # Grouped by campaign benchmark order.
        assert prefixes == sorted(
            prefixes, key=campaign.benchmarks.index)
        for benchmark in campaign.benchmarks:
            members = [row.split(":", 1)[1] for row in report.benchmarks
                       if row.startswith(benchmark + ":")]
            placement_order = list(dict.fromkeys(
                campaign.runs[(benchmark, "MuonTrap", 0)].core_benchmarks))
            assert members == placement_order

    def test_baseline_normalises_to_one(self):
        """Per-constituent values of an identical-to-baseline label are 1."""
        rng = random.Random(11)
        campaign = _synthetic_campaign(rng)
        # Overwrite one label with exact copies of the baseline runs.
        for benchmark in campaign.benchmarks:
            campaign.runs[(benchmark, "MuonTrap", 0)] = campaign.runs[
                (benchmark, "baseline", 0)]
        series = campaign.per_constituent_normalised()
        assert all(value == pytest.approx(1.0)
                   for value in series["MuonTrap"].values())


class TestEndToEndMachineSweep:
    def test_machine_preset_campaign_produces_constituent_tables(self):
        """A real (tiny) sweep: one mix on a heterogeneous preset, per-
        constituent table rendered with rows for both members."""
        campaign = Campaign(
            ["mix-pointer-stream"],
            configs={"biglittle": get_machine("biglittle-muontrap")},
            # Normalise against the same machine, unprotected.
            baseline_config=get_machine("biglittle-muontrap").with_mode(
                "unprotected"),
            instructions=600, jobs=1)
        result = campaign.run()
        assert result.has_corun_results
        report = Report.from_campaign_constituents(result)
        assert report.benchmarks == ["mix-pointer-stream:mcf",
                                     "mix-pointer-stream:lbm"]
        rendered = report.render("markdown")
        assert "mix-pointer-stream:lbm" in rendered
        for values in result.per_constituent_normalised().values():
            assert all(value > 0 for value in values.values())

"""The cross-core attack suite, driven through the real coherence fabric.

Acceptance matrix of the co-run work: on at least 2 cores and 2 seeds, the
unprotected and insecure-L0 systems leak the secret across cores while
MuonTrap blocks it — deterministically, with every transmission and probe
executed by real out-of-order cores against the shared bus/snoop-filter/LLC
fabric rather than by driving a memory system directly.
"""

import pytest

from repro.attacks.cross_core import (
    CROSS_CORE_ATTACKS,
    CrossCoreLLCPrimeProbeAttack,
    CrossCoreReloadAttack,
    classify_contention,
    run_cross_core_suite,
)

LEAKY_MODES = ["unprotected", "insecure-l0"]
SEEDS = [0, 1]
CORE_COUNTS = [2, 4]


class TestCrossCoreReload:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    @pytest.mark.parametrize("mode", LEAKY_MODES)
    def test_insecure_systems_leak_across_cores(self, mode, num_cores, seed):
        for secret in (1, 5):
            outcome = CrossCoreReloadAttack(mode=mode, secret=secret,
                                            num_cores=num_cores,
                                            seed=seed).run()
            assert outcome.succeeded, (
                f"{mode} should leak: {outcome.probe_latencies}")
            assert outcome.recovered_secret == secret
            assert outcome.signal_margin >= 2

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    def test_muontrap_blocks_the_channel(self, num_cores, seed):
        for secret in (1, 5):
            outcome = CrossCoreReloadAttack(mode="muontrap",
                                            secret=secret,
                                            num_cores=num_cores,
                                            seed=seed).run()
            assert outcome.recovered_secret is None, (
                f"muontrap leaked: {outcome.probe_latencies}")
            assert not outcome.succeeded

    def test_muontrap_probe_timing_is_secret_invariant(self):
        """The stronger property: probe latencies do not depend on the
        secret at all, not merely 'no single value stands out'."""
        latencies = [
            CrossCoreReloadAttack(mode="muontrap",
                                  secret=secret, seed=0).run().probe_latencies
            for secret in range(4)
        ]
        assert all(entry == latencies[0] for entry in latencies[1:])


class TestCrossCoreLLCPrimeProbe:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", LEAKY_MODES)
    def test_contention_channel_leaks_on_insecure_systems(self, mode, seed):
        for secret in (0, 2):
            outcome = CrossCoreLLCPrimeProbeAttack(mode=mode, secret=secret,
                                                   seed=seed).run()
            assert outcome.succeeded, (
                f"{mode} should leak: {outcome.probe_latencies}")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_muontrap_leaves_no_llc_footprint(self, seed):
        for secret in (0, 2):
            outcome = CrossCoreLLCPrimeProbeAttack(
                mode="muontrap", secret=secret, seed=seed).run()
            assert outcome.recovered_secret is None, (
                f"muontrap leaked: {outcome.probe_latencies}")

    def test_classify_contention_picks_slowest(self):
        assert classify_contention({0: 10, 1: 300, 2: 12}) == (1, 288)
        assert classify_contention({0: 10, 1: 11}) == (None, 1)


class TestCrossCoreSuite:
    def test_suite_runs_the_full_matrix_deterministically(self):
        modes = LEAKY_MODES + ["muontrap"]
        first = run_cross_core_suite(modes, seeds=SEEDS, num_cores=2)
        second = run_cross_core_suite(modes, seeds=SEEDS, num_cores=2)
        assert set(first) == {
            (attack.name, mode, seed)
            for attack in CROSS_CORE_ATTACKS
            for mode in modes for seed in SEEDS
        }
        for key, outcome in first.items():
            attack_name, mode_value, _ = key
            rerun = second[key]
            assert outcome.probe_latencies == rerun.probe_latencies, key
            assert outcome.recovered_secret == rerun.recovered_secret, key
            if mode_value == "muontrap":
                assert not outcome.succeeded, key
            else:
                assert outcome.succeeded, key

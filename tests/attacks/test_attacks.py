"""Security tests: every attack leaks on the baseline and fails on MuonTrap."""

import pytest

from repro.attacks import (
    ALL_ATTACKS,
    FilterCacheCoherencyAttack,
    InclusionPolicyAttack,
    InstructionCacheAttack,
    PrefetcherAttack,
    SharedDataCoherenceAttack,
    SpectrePrimeProbeAttack,
    classify_probe,
)
from repro.attacks.framework import AttackEnvironment

LEAKING_ATTACKS = [SpectrePrimeProbeAttack, InclusionPolicyAttack,
                   SharedDataCoherenceAttack, FilterCacheCoherencyAttack,
                   PrefetcherAttack, InstructionCacheAttack]


@pytest.mark.parametrize("attack_cls", LEAKING_ATTACKS,
                         ids=[cls.name for cls in LEAKING_ATTACKS])
def test_attack_succeeds_on_unprotected_system(attack_cls):
    outcome = attack_cls(mode="unprotected").run()
    assert outcome.succeeded, (
        f"{attack_cls.name} should leak the secret on an unprotected system; "
        f"probe latencies: {outcome.probe_latencies}")


@pytest.mark.parametrize("attack_cls", ALL_ATTACKS,
                         ids=[cls.name for cls in ALL_ATTACKS])
def test_attack_fails_under_muontrap(attack_cls):
    outcome = attack_cls(mode="muontrap").run()
    assert not outcome.succeeded, (
        f"{attack_cls.name} must not leak under MuonTrap; probe latencies: "
        f"{outcome.probe_latencies}")


@pytest.mark.parametrize("secret", [0, 1, 5, 7])
def test_spectre_attack_recovers_arbitrary_secret_values(secret):
    outcome = SpectrePrimeProbeAttack(mode="unprotected",
                                      secret=secret).run()
    assert outcome.recovered_secret == secret


@pytest.mark.parametrize("secret", [0, 2, 6])
def test_muontrap_blocks_arbitrary_secret_values(secret):
    outcome = SpectrePrimeProbeAttack(mode="muontrap",
                                      secret=secret).run()
    assert not outcome.succeeded


def test_muontrap_probe_timing_is_uniform():
    """Under MuonTrap the attacker's probe latencies carry no signal."""
    outcome = SpectrePrimeProbeAttack(mode="muontrap").run()
    latencies = list(outcome.probe_latencies.values())[1:]  # skip TLB-walk one
    assert max(latencies) - min(latencies) < 2


def test_invisispec_still_leaks_through_instruction_cache_or_prefetcher():
    """InvisiSpec protects neither the I-cache nor the prefetcher (section 7)."""
    icache = InstructionCacheAttack(
        mode="invisispec-future").run()
    prefetcher = PrefetcherAttack(mode="invisispec-future").run()
    assert icache.succeeded or prefetcher.succeeded


def test_classify_probe_requires_a_margin():
    assert classify_probe({}) == (None, 0)
    assert classify_probe({0: 10})[0] == 0
    assert classify_probe({0: 10, 1: 11})[0] is None
    value, margin = classify_probe({0: 30, 1: 2, 2: 30})
    assert value == 1 and margin == 28


def test_environment_shares_probe_array_between_processes():
    env = AttackEnvironment(mode="unprotected")
    attacker = env.page_tables.address_space(100)
    victim = env.page_tables.address_space(200)
    assert attacker.translate(env.probe_address(0)) == \
        victim.translate(env.probe_address(0))


def test_attack_outcome_reports_margin():
    outcome = SpectrePrimeProbeAttack(mode="unprotected").run()
    assert outcome.signal_margin >= 0

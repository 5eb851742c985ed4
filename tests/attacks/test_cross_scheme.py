"""Asymmetric protection: the (victim scheme × attacker scheme) matrix.

The security property of per-core protection: whether a cross-core channel
leaks depends *only* on the victim core's scheme.  Protecting the
attacker's own core neither opens nor closes the channel, and a MuonTrap
victim stays timing-invariant even when its neighbour is unprotected.

Plus the filter-invalidate ablation: scoping MuonTrap's invalidation
multicast by the snoop filter (``insecure_scoped_invalidate``) leaves a
stale, secret-dependent line in a peer's filter cache — a measurable
timing channel the unscoped broadcast provably closes.
"""

from dataclasses import replace

import pytest

from repro.attacks.cross_core import (
    CROSS_CORE_ATTACKS,
    CrossCoreLLCPrimeProbeAttack,
    CrossCoreReloadAttack,
    run_cross_scheme_matrix,
)
from repro.attacks.framework import (
    CrossCoreAttackEnvironment,
    classify_probe,
)
from repro.common.params import (
    ProtectionConfig,
    SystemConfig,
)

LEAKY = ["unprotected", "insecure-l0"]
SCHEMES = LEAKY + ["muontrap"]


class TestCrossSchemeMatrix:
    @pytest.mark.parametrize("attacker", SCHEMES)
    @pytest.mark.parametrize("victim", SCHEMES)
    def test_leak_depends_only_on_the_victim_scheme(self, victim, attacker):
        for attack_cls in CROSS_CORE_ATTACKS:
            outcome = attack_cls(victim_mode=victim, attacker_mode=attacker,
                                 seed=0).run()
            assert outcome.mode == (
                f"victim={victim},attacker={attacker}")
            if victim in LEAKY:
                assert outcome.succeeded, (
                    f"{outcome.mode} should leak via {attack_cls.name}: "
                    f"{outcome.probe_latencies}")
            else:
                assert outcome.recovered_secret is None, (
                    f"{outcome.mode} leaked via {attack_cls.name}: "
                    f"{outcome.probe_latencies}")

    def test_muontrap_victim_is_timing_invariant_beside_unprotected(self):
        """Stronger than 'no winner': with an *unprotected* attacker core
        on the same fabric, a MuonTrap victim's probe timing does not
        depend on the secret at all."""
        latencies = [
            CrossCoreReloadAttack(victim_mode="muontrap",
                                  attacker_mode="unprotected",
                                  secret=secret, seed=0).run().probe_latencies
            for secret in range(4)
        ]
        assert all(entry == latencies[0] for entry in latencies[1:])

    @pytest.mark.slow
    @pytest.mark.parametrize("writer_mode", LEAKY)
    def test_unprotected_writers_still_invalidate_peer_filters(
            self, writer_mode):
        """The invalidation multicast is a fabric property: a committed
        store by an *unprotected* core must still invalidate a MuonTrap
        peer's speculatively filled filter line — otherwise the stale copy
        is a secret-dependent 1-cycle hit, the very channel the broadcast
        exists to close."""
        env = CrossCoreAttackEnvironment(
            core_modes=[writer_mode, "muontrap"], secret=2)
        env.victim_speculative_touch([env.probe_address(env.secret)])
        for value in range(env.num_secret_values):
            env.attacker_store(env.probe_address(value))
        latencies = env.victim_probe_latencies()
        recovered, _ = classify_probe(latencies)
        assert recovered is None, latencies
        assert len(set(latencies.values())) == 1
        victim_frontend = env.system.memory_system.frontend(env.VICTIM_CORE)
        assert victim_frontend.data_filter(env.VICTIM_CORE).probe_physical(
            env.shared_physical(env.probe_address(env.secret))) is None

    def test_matrix_runner_covers_every_pair_deterministically(self):
        first = run_cross_scheme_matrix(SCHEMES, SCHEMES, seeds=(0,))
        second = run_cross_scheme_matrix(SCHEMES, SCHEMES, seeds=(0,))
        assert set(first) == {
            (attack.name, victim, attacker, 0)
            for attack in CROSS_CORE_ATTACKS
            for victim in SCHEMES for attacker in SCHEMES}
        for key, outcome in first.items():
            assert outcome.probe_latencies == second[key].probe_latencies
            _, victim_value, _, _ = key
            leaky = victim_value != "muontrap"
            assert outcome.succeeded == leaky, key

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1])
    def test_matrix_holds_on_wider_machines_and_other_seeds(self, seed):
        outcomes = run_cross_scheme_matrix(
            SCHEMES, ["muontrap"], seeds=(seed,), num_cores=4)
        for (name, victim_value, _, _), outcome in outcomes.items():
            leaky = victim_value != "muontrap"
            assert outcome.succeeded == leaky, (name, victim_value)


def _scoped_environment(scoped: bool,
                        secret: int = 3) -> CrossCoreAttackEnvironment:
    config = SystemConfig(protection=ProtectionConfig(
        insecure_scoped_invalidate=scoped))
    return CrossCoreAttackEnvironment(mode="muontrap",
                                      secret=secret, config=config)


def _stale_filter_channel(scoped: bool, secret: int = 3):
    """Victim speculates on the secret line, attacker stores to every
    candidate; return the classification of the victim's reload timing."""
    env = _scoped_environment(scoped, secret=secret)
    env.victim_speculative_touch([env.probe_address(env.secret)])
    for value in range(env.num_secret_values):
        env.attacker_store(env.probe_address(value))
    latencies = env.victim_probe_latencies()
    return classify_probe(latencies), latencies, env


class TestScopedInvalidateAblation:
    def test_flag_defaults_off_and_reaches_the_bus(self):
        closed = _scoped_environment(False)
        opened = _scoped_environment(True)
        assert not closed.system.hierarchy.bus.scoped_filter_invalidate
        assert opened.system.hierarchy.bus.scoped_filter_invalidate
        assert not ProtectionConfig().insecure_scoped_invalidate

    @pytest.mark.parametrize("secret", [1, 3, 6])
    def test_scoped_invalidate_reintroduces_a_timing_channel(self, secret):
        (recovered, margin), latencies, env = _stale_filter_channel(
            True, secret=secret)
        assert recovered == secret, latencies
        assert margin >= 2
        # The mechanism: the victim's filter cache still holds the stale
        # secret-dependent line the scoped multicast failed to reach.
        memory = env.system.memory_system
        line = memory.data_filter(env.VICTIM_CORE).probe_physical(
            env.shared_physical(env.probe_address(secret)))
        assert line is not None

    @pytest.mark.parametrize("secret", [1, 3, 6])
    def test_unscoped_broadcast_closes_the_channel(self, secret):
        (recovered, margin), latencies, env = _stale_filter_channel(
            False, secret=secret)
        assert recovered is None, latencies
        # Uniform timing: every candidate pays the same reload latency.
        assert len(set(latencies.values())) == 1
        memory = env.system.memory_system
        assert memory.data_filter(env.VICTIM_CORE).probe_physical(
            env.shared_physical(env.probe_address(secret))) is None

    def test_scoping_still_multicasts_when_directory_shows_a_peer_copy(self):
        """The ablation's gate is the *pre-upgrade* directory verdict: when
        a peer provably holds a non-speculative copy, the multicast must
        still go out (and reach the peer's filter) even though the
        upgrade's own invalidations purge that directory entry."""
        from repro.cpu.instructions import MicroOp, OpKind

        env = _scoped_environment(True)
        address = env.probe_address(0)
        # A committed victim load: the line lands in the victim's filter
        # *and* (via write-through-at-commit) its L1, so the snoop-filter
        # directory records the victim as a sharer.
        env.victim.execute_op(MicroOp(kind=OpKind.LOAD, pc=env.VICTIM_CODE,
                                      address=address, dst_reg=7))
        bus = env.system.hierarchy.bus
        before = bus.filter_broadcasts
        env.attacker_store(address)
        assert bus.filter_broadcasts > before
        memory = env.system.memory_system
        assert memory.data_filter(env.VICTIM_CORE).probe_physical(
            env.shared_physical(address)) is None

    def test_scoping_skips_broadcasts_the_full_multicast_sends(self):
        """The ablation's 'saving' is real: the bus performs strictly
        fewer filter-invalidate multicasts when scoped — that traffic
        reduction is exactly what the timing channel pays for."""
        _, _, full = _stale_filter_channel(False)
        _, _, scoped = _stale_filter_channel(True)
        assert (scoped.system.hierarchy.bus.filter_broadcasts
                < full.system.hierarchy.bus.filter_broadcasts)

"""Cross-core attacks executed through the real simulated fabric.

These are the multicore counterparts of Attacks 1 and 4: the attacker and
victim are *resident on different cores* of one
:class:`~repro.sim.system.SimulatedSystem`, and every transmission and
probe flows through the real out-of-order cores, private hierarchies,
coherence bus, snoop filter and shared LLC — nothing drives a memory
system directly.

* :class:`CrossCoreReloadAttack` — evict + speculate + reload over a
  shared page: the victim's squashed wrong-path load of a secret-indexed
  shared line leaves (on an insecure system) a copy in the shared LLC /
  the victim's private caches, which the attacker detects from another
  core by timing committed reloads that are served over the coherence
  fabric instead of from memory.

* :class:`CrossCoreLLCPrimeProbeAttack` — classic prime + probe over LLC
  *contention*, needing no shared data for the probe: the attacker fills
  the LLC sets that the candidate secret lines map to with its own
  physically-colliding lines, lets the victim speculate, and finds the set
  where its primed lines were evicted.

Under MuonTrap both channels are closed: the victim's speculative fill
only ever reaches its per-core filter cache, which is invisible to the
coherence protocol and never installs into any non-speculative cache, so
every probe is timing-invariant in the secret.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.framework import (
    AttackOutcome,
    CrossCoreAttackEnvironment,
    classify_probe,
)
from repro.common.params import SystemConfig


def classify_contention(latencies: Dict[int, int]) -> Tuple[Optional[int], int]:
    """Pick the value whose probe was distinctly *slowest* (prime+probe).

    The mirror image of :func:`classify_probe`: contention channels signal
    through evictions, so the secret-bearing set is the slow one.
    """
    recovered, margin = classify_probe(
        {value: -latency for value, latency in latencies.items()})
    return recovered, margin


def _scheme_plan(mode: str, num_cores: int,
                 victim_mode: Optional[str],
                 attacker_mode: Optional[str]):
    """Resolve the per-core scheme assignment and its report label.

    With neither override set, the machine is homogeneous under ``mode``
    (the historical behaviour, bit-identical to before heterogeneity).
    Setting ``victim_mode`` / ``attacker_mode`` builds an asymmetric
    machine — attacker on core 0, victims on the rest — and labels the
    outcome ``victim=<scheme>,attacker=<scheme>``.
    """
    if victim_mode is None and attacker_mode is None:
        return None, mode
    victim = victim_mode if victim_mode is not None else mode
    attacker = attacker_mode if attacker_mode is not None else mode
    core_modes = [attacker] + [victim] * (num_cores - 1)
    return core_modes, f"victim={victim},attacker={attacker}"


class CrossCoreReloadAttack:
    """Cross-core evict + speculate + reload through the coherence fabric."""

    name = "cross-core-reload"

    def __init__(self, mode: str = "unprotected",
                 secret: int = 3, num_secret_values: int = 8,
                 num_cores: int = 2, seed: int = 0,
                 config: Optional[SystemConfig] = None,
                 victim_mode: Optional[str] = None,
                 attacker_mode: Optional[str] = None) -> None:
        core_modes, self.mode_label = _scheme_plan(
            mode, num_cores, victim_mode, attacker_mode)
        self.environment = CrossCoreAttackEnvironment(
            mode=mode, num_cores=num_cores, secret=secret,
            num_secret_values=num_secret_values, seed=seed, config=config,
            core_modes=core_modes)
        self.mode = mode

    def run(self) -> AttackOutcome:
        env = self.environment
        # Step 1 (attacker, core 0): unrelated committed work of its own;
        # the shared probe array has never been touched, so it is uncached.
        for index in range(8):
            env.attacker_timed_load(env.attacker_private_address(512 + index))
        # Step 2 (victim, core 1): the Spectre gadget — a mispredicted
        # branch whose squashed wrong-path load touches the shared line
        # selected by the secret.
        env.victim_speculative_touch([env.probe_address(env.secret)])
        # Step 3 (attacker, core 0): time a committed reload of every
        # candidate line; a fast one was supplied by the fabric (peer cache
        # or LLC) rather than by memory.
        latencies = env.attacker_probe_all()
        recovered, margin = classify_probe(latencies)
        return AttackOutcome(name=self.name, mode=self.mode_label,
                             actual_secret=env.secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies,
                             notes=f"margin={margin}")


class CrossCoreLLCPrimeProbeAttack:
    """Cross-core prime + probe on the shared LLC (pure contention)."""

    name = "cross-core-llc-prime-probe"

    def __init__(self, mode: str = "unprotected",
                 secret: int = 3, num_secret_values: int = 4,
                 num_cores: int = 2, seed: int = 0,
                 config: Optional[SystemConfig] = None,
                 victim_mode: Optional[str] = None,
                 attacker_mode: Optional[str] = None) -> None:
        core_modes, self.mode_label = _scheme_plan(
            mode, num_cores, victim_mode, attacker_mode)
        self.environment = CrossCoreAttackEnvironment(
            mode=mode, num_cores=num_cores, secret=secret,
            num_secret_values=num_secret_values, seed=seed, config=config,
            core_modes=core_modes)
        self.mode = mode

    # -- eviction-set construction -------------------------------------------
    def _llc(self):
        hierarchy = self.environment.system.hierarchy
        if hierarchy is None:  # pragma: no cover - every mode has one today
            raise RuntimeError("memory system exposes no shared hierarchy")
        return hierarchy.l2

    def eviction_addresses(self, value: int,
                           ways: Optional[int] = None) -> List[int]:
        """Attacker-private addresses whose *physical* lines collide, in the
        LLC, with the shared probe line encoding ``value``.

        Physical frames are allocate-on-touch, so the attacker pins its
        prime region's mapping by translating it in a fixed order — the
        simulated equivalent of the hugepage / timing tricks real LLC
        attacks use to build eviction sets.
        """
        env = self.environment
        llc = self._llc()
        ways = llc.associativity if ways is None else ways
        target_set = llc.set_index_of(
            env.shared_physical(env.probe_address(value)))
        addresses: List[int] = []
        index = 0
        while len(addresses) < ways:
            virtual = env.attacker_private_address(4096 + index)
            physical = env.attacker_physical(virtual)
            if llc.set_index_of(physical) == target_set:
                addresses.append(virtual)
            index += 1
            if index > llc.num_sets * (ways + 2):  # pragma: no cover
                raise RuntimeError("could not build an eviction set")
        return addresses

    def run(self) -> AttackOutcome:
        env = self.environment
        eviction_sets = {value: self.eviction_addresses(value)
                         for value in range(env.num_secret_values)}
        # Step 0 (victim): ordinary committed work, including the load of
        # its own secret, happens *before* the prime phase — only the
        # squashed speculative access lands between prime and probe.
        env.victim_load_secret()
        # Step 1 (attacker): prime — fill every candidate's LLC set with
        # the attacker's own lines.
        for value in range(env.num_secret_values):
            for address in eviction_sets[value]:
                env.attacker_timed_load(address)
        # Step 2 (victim): the squashed speculative touch.  On an insecure
        # system its LLC fill evicts one of the primed lines.
        env.victim_speculative_touch([env.probe_address(env.secret)],
                                     load_secret=False)
        # Step 3 (attacker): probe — re-time the primed lines per set; the
        # victim's set shows misses (served from memory), the rest hit.
        latencies = {
            value: sum(env.attacker_timed_load(address)
                       for address in eviction_sets[value])
            for value in range(env.num_secret_values)}
        recovered, margin = classify_contention(latencies)
        return AttackOutcome(name=self.name, mode=self.mode_label,
                             actual_secret=env.secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies,
                             notes=f"margin={margin}")


CROSS_CORE_ATTACKS = [CrossCoreReloadAttack, CrossCoreLLCPrimeProbeAttack]


def run_cross_core_suite(modes: Sequence[str],
                         seeds: Sequence[int] = (0,),
                         num_cores: int = 2,
                         config: Optional[SystemConfig] = None
                         ) -> Dict[Tuple[str, str, int], AttackOutcome]:
    """Run every cross-core attack for each mode × seed.

    Returns ``{(attack name, scheme name, seed): outcome}``; the harness is
    fully deterministic, so repeated invocations produce identical maps.
    """
    outcomes: Dict[Tuple[str, str, int], AttackOutcome] = {}
    for attack_cls in CROSS_CORE_ATTACKS:
        for mode in modes:
            for seed in seeds:
                attack = attack_cls(mode=mode, num_cores=num_cores,
                                    seed=seed, config=config)
                outcome = attack.run()
                outcomes[(attack.name, mode, seed)] = outcome
    return outcomes


def run_cross_scheme_matrix(victim_modes: Sequence[str],
                            attacker_modes: Sequence[str],
                            seeds: Sequence[int] = (0,),
                            num_cores: int = 2,
                            config: Optional[SystemConfig] = None
                            ) -> Dict[Tuple[str, str, str, int],
                                      AttackOutcome]:
    """The asymmetric-protection threat matrix.

    Runs every cross-core attack for each (victim scheme × attacker
    scheme × seed) on one machine whose attacker core (0) and victim
    cores run *different* protection schemes.  Returns
    ``{(attack name, victim mode, attacker mode, seed): outcome}``.  The
    security property the tests pin down: whether the channel leaks
    depends only on the victim core's scheme — protecting the attacker's
    own core neither opens nor closes it.
    """
    outcomes: Dict[Tuple[str, str, str, int], AttackOutcome] = {}
    for attack_cls in CROSS_CORE_ATTACKS:
        for victim_mode in victim_modes:
            for attacker_mode in attacker_modes:
                for seed in seeds:
                    attack = attack_cls(victim_mode=victim_mode,
                                        attacker_mode=attacker_mode,
                                        num_cores=num_cores, seed=seed,
                                        config=config)
                    outcome = attack.run()
                    outcomes[(attack.name, victim_mode, attacker_mode,
                              seed)] = outcome
    return outcomes

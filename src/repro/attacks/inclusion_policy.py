"""Attack 2: the inclusion-policy attack.

Instead of observing what the victim brought *into* the cache, the attacker
observes what the victim's speculative fill pushed *out*.  The attacker
primes the L1 set of every candidate probe line with as many lines as the
L1 has ways (all drawn from the physically contiguous shared region, so set
indices can be computed from addresses); the victim's squashed speculative
load of the secret-indexed address lands in one of those sets and evicts a
primed line, which the attacker then finds slow.

MuonTrap's defence is that the filter cache is non-inclusive, non-exclusive
with the rest of the hierarchy: a speculative fill goes only into the L0 and
never displaces anything from the L1 or L2, so the attacker's primed lines
are all still fast.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.framework import (
    AttackEnvironment,
    AttackOutcome,
    classify_probe,
    VICTIM_SECRET_ADDRESS,
)
from repro.common.params import SystemConfig


class InclusionPolicyAttack:
    """Attack 2 of the paper (prime, speculatively evict, probe)."""

    name = "inclusion-policy"

    def __init__(self, mode: str = "unprotected",
                 secret: int = 5, num_secret_values: int = 8,
                 config: Optional[SystemConfig] = None) -> None:
        base = config or SystemConfig()
        l1_ways = base.l1d.associativity
        set_stride = base.l1d.num_sets * base.l1d.line_size
        # Enough physically contiguous shared memory for the probe slots plus
        # one full way-stride per L1 way above them.
        shared_bytes = (l1_ways + 1) * set_stride + 2 * 4096
        self.environment = AttackEnvironment(
            config=config, mode=mode, num_cores=1, secret=secret,
            num_secret_values=num_secret_values, shared_bytes=shared_bytes)
        self.mode = mode
        self.l1_ways = l1_ways
        self.set_stride = set_stride

    def _eviction_set(self, value: int) -> List[int]:
        """Shared-region addresses that map to the probe line's L1 set."""
        target = self.environment.probe_address(value)
        return [target + way * self.set_stride
                for way in range(1, self.l1_ways + 1)]

    def run(self) -> AttackOutcome:
        env = self.environment
        secret = env.secret

        # Step 1 (attacker): prime every candidate's L1 set so that any later
        # fill in that set must evict one of the primed lines.
        primed: Dict[int, List[int]] = {}
        for value in range(env.num_secret_values):
            primed[value] = self._eviction_set(value)
            for address in primed[value]:
                env.attacker_load(address)
        # Touch them once more so they are resident and equally recent.
        for value in range(env.num_secret_values):
            for address in primed[value]:
                env.attacker_load(address)

        # Step 2 (victim, speculative, squashed): secret-dependent fill.
        env.victim_speculative_load(VICTIM_SECRET_ADDRESS)
        env.victim_speculative_load(env.probe_address(secret))
        env.victim_squash()

        # Step 3 (attacker): re-time the primed lines; the set whose line got
        # evicted shows a slow access.
        slow_per_value: Dict[int, int] = {}
        for value in range(env.num_secret_values):
            slowest = 0
            for address in primed[value]:
                slowest = max(slowest, env.attacker_load(address))
            slow_per_value[value] = slowest

        # The *slowest* candidate is the leaked one here, so invert the sign
        # before reusing the shared classifier.
        inverted = {value: -latency for value, latency in
                    slow_per_value.items()}
        recovered, _ = classify_probe(inverted)
        return AttackOutcome(name=self.name, mode=self.mode,
                             actual_secret=secret,
                             recovered_secret=recovered,
                             probe_latencies=slow_per_value)

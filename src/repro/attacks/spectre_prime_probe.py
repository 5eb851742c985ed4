"""Attack 1: the classic Spectre cache attack (evict + speculate + reload).

The attacker and victim share a probe array (a shared library page that is
cold at the start of the attack).  The attacker tricks the victim into
speculatively loading its secret and using it to index the shared array;
the speculation is then squashed, so none of the victim's accesses commit.
When control returns to the attacker, it times a committed load of every
probe element: on an unprotected system the secret-indexed element was
filled into the (physically shared) L1/L2 by the squashed access and is
fast, so the secret leaks.  Under MuonTrap the speculative fill only ever
reached the victim's filter cache, which is non-inclusive non-exclusive
with the hierarchy and is cleared on the context switch back to the
attacker, so every probe is equally slow and nothing leaks.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.attacks.framework import (
    AttackEnvironment,
    AttackOutcome,
    classify_probe,
    VICTIM_SECRET_ADDRESS,
)
from repro.common.params import SystemConfig


class SpectrePrimeProbeAttack:
    """Attack 1 of the paper."""

    name = "spectre-prime-probe"

    def __init__(self, mode: str = "unprotected",
                 secret: int = 3, num_secret_values: int = 8,
                 config: Optional[SystemConfig] = None) -> None:
        self.environment = AttackEnvironment(
            config=config, mode=mode, num_cores=1, secret=secret,
            num_secret_values=num_secret_values)
        self.mode = mode

    def run(self) -> AttackOutcome:
        env = self.environment
        secret = env.secret

        # Step 1 (attacker): establish the primed state.  The probe array is
        # shared but has never been touched, so every element is uncached;
        # the attacker just does unrelated work of its own.
        for index in range(32):
            env.attacker_load(env.attacker_private_address(512 + index))

        # Step 2 (victim, speculative): the bounds-check mispredicts, the
        # victim loads its secret and dereferences the shared array at a
        # secret-dependent index.  None of this ever commits.
        env.victim_speculative_load(VICTIM_SECRET_ADDRESS)
        env.victim_speculative_load(env.probe_address(secret))
        env.victim_squash()

        # Step 3 (attacker): time a committed load of every probe element.
        latencies: Dict[int, int] = {}
        for value in range(env.num_secret_values):
            latencies[value] = env.attacker_load(env.probe_address(value))

        recovered, _ = classify_probe(latencies)
        return AttackOutcome(name=self.name, mode=self.mode,
                             actual_secret=secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies)

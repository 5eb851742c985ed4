"""Attack 6: the instruction-cache attack.

The data cache is not the only shared structure speculation can imprint on:
a victim that speculatively executes an indirect branch whose target depends
on a secret will fetch instructions from a secret-dependent location,
filling the instruction cache.  The attacker, sharing that code (a shared
library), afterwards times instruction fetches of each candidate target and
finds the warm one.  MuonTrap closes the channel with an instruction filter
cache: speculative fetches fill only the per-core L0I, which is flushed on
the context switch back to the attacker.
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


class InstructionCacheAttack:
    """Attack 6 of the paper: leaking through speculative instruction fetch."""

    name = "instruction-cache"

    def __init__(self, mode: str = "unprotected",
                 secret: int = 4, num_secret_values: int = 8,
                 config: Optional[SystemConfig] = None) -> None:
        self.environment = AttackEnvironment(
            config=config, mode=mode, num_cores=1, secret=secret,
            num_secret_values=num_secret_values)
        self.mode = mode

    def _gadget_address(self, value: int) -> int:
        # Candidate branch targets inside the shared (library) code region,
        # one cache line apart so each maps to its own I-cache line.
        return self.environment.probe_address(value)

    def run(self) -> AttackOutcome:
        env = self.environment
        secret = env.secret

        # Step 1 (attacker): ensure none of the candidate targets are warm in
        # the shared hierarchy by touching unrelated code.
        for index in range(32):
            env.attacker_fetch(env.attacker_private_address(2048 + index))

        # Step 2 (victim, speculative, squashed): the poisoned indirect
        # branch sends speculative fetch to the secret-dependent target.
        env.victim_speculative_load(VICTIM_SECRET_ADDRESS)
        env.victim_speculative_fetch(self._gadget_address(secret))
        env.victim_squash()

        # Step 3 (attacker): time an instruction fetch of every candidate.
        latencies: Dict[int, int] = {}
        for value in range(env.num_secret_values):
            latencies[value] = env.attacker_fetch(self._gadget_address(value))

        recovered, _ = classify_probe(latencies)
        return AttackOutcome(name=self.name, mode=self.mode,
                             actual_secret=secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies)

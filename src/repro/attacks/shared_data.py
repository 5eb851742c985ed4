"""Attack 3: the shared-data coherence attack (SpectrePrime-style).

The attacker and victim run on different cores and share a writable page.
The attacker first loads a shared line so its own private L1 holds it in the
Exclusive state.  It then tricks the victim into speculatively touching the
line (a load that would normally steal the line into Shared, or a
speculative store/RFO).  Afterwards the attacker times a *store* to the
line: if the victim's speculation downgraded or invalidated the attacker's
copy, the store needs a coherence transaction and is slow — a timing channel
through the coherence protocol rather than through cache contents.

MuonTrap's defence is reduced coherency speculation: a speculative access
that would force another core's private M/E line out of that state is
NACKed and retried only once it is non-speculative, so a squashed
speculative access can never change the attacker's coherence state.
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


class SharedDataCoherenceAttack:
    """Attack 3 of the paper, run across two cores."""

    name = "shared-data-coherence"

    def __init__(self, mode: str = "unprotected",
                 secret: int = 2, num_secret_values: int = 4,
                 config: Optional[SystemConfig] = None) -> None:
        self.environment = AttackEnvironment(
            config=config, mode=mode, num_cores=2, secret=secret,
            num_secret_values=num_secret_values)
        self.mode = mode
        self.attacker_core = 0
        self.victim_core = 1

    def run(self) -> AttackOutcome:
        env = self.environment
        secret = env.secret

        # Step 1 (attacker, core 0): bring every probe line into the
        # attacker's private L1 with write ownership (Modified/Exclusive).
        for value in range(env.num_secret_values):
            env.attacker_store(env.probe_address(value),
                               core_id=self.attacker_core)

        # Step 2 (victim, core 1, speculative, squashed): load the secret and
        # use it to issue a speculative access to the corresponding shared
        # line.  On an unprotected system this steals the line from the
        # attacker's cache; under MuonTrap the request is NACKed.
        env.victim_speculative_load(VICTIM_SECRET_ADDRESS,
                                    core_id=self.victim_core)
        env.victim_speculative_load(env.probe_address(secret),
                                    core_id=self.victim_core)
        env.victim_squash(core_id=self.victim_core)

        # Step 3 (attacker, core 0): time a store to every probe line.  A
        # line still held in M/E locally commits quickly; a line that lost
        # ownership needs an invalidating bus transaction first.
        latencies: Dict[int, int] = {}
        for value in range(env.num_secret_values):
            latencies[value] = env.attacker_store(
                env.probe_address(value), core_id=self.attacker_core)

        inverted = {value: -latency for value, latency in latencies.items()}
        recovered, _ = classify_probe(inverted)
        return AttackOutcome(name=self.name, mode=self.mode,
                             actual_secret=secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies)

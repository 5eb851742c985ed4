"""Attack 4: the filter-cache coherency attack.

This attack targets a *naive* filter-cache design rather than the baseline:
if a filter cache were allowed to take lines in Exclusive (or its presence
otherwise influenced the coherence protocol), then an attacker sharing data
with the victim could detect whether the victim's filter cache holds a line
by timing how long its own request takes — even though the data never
reached a non-speculative cache.

MuonTrap's defence is filter-cache state reduction: lines enter the filter
cache only in Shared (the ``SE`` pseudo-state is invisible to the protocol
until the access commits), so the presence or absence of a line in any
filter cache never changes the latency of anyone else's access.  The
"attack" therefore measures timing *invariance*: it reports success (i.e. a
leak) only if the attacker can distinguish which shared line the victim
speculatively touched.
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


class FilterCacheCoherencyAttack:
    """Attack 4 of the paper: probing speculative state through coherence."""

    name = "filter-cache-coherency"

    def __init__(self, mode: str = "muontrap",
                 secret: int = 1, num_secret_values: int = 4,
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

        # Step 1 (victim, core 1, speculative, squashed): touch the shared
        # line selected by the secret.  Under MuonTrap this only populates
        # the victim's filter cache, in Shared.
        env.victim_speculative_load(VICTIM_SECRET_ADDRESS,
                                    core_id=self.victim_core)
        env.victim_speculative_load(env.probe_address(secret),
                                    core_id=self.victim_core)
        env.victim_squash(core_id=self.victim_core)

        # Step 2 (attacker, core 0): load every probe line and look for one
        # whose latency differs because of the victim's filter-cache state
        # (e.g. an extra invalidation or a denied exclusive grant).
        latencies: Dict[int, int] = {}
        for value in range(env.num_secret_values):
            latencies[value] = env.attacker_load(
                env.probe_address(value), core_id=self.attacker_core)

        recovered, margin = classify_probe(latencies)
        # Timing invariance: if every probe takes the same time the channel
        # carries nothing and recovered is None.
        return AttackOutcome(name=self.name, mode=self.mode,
                             actual_secret=secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies,
                             notes=f"margin={margin}")

"""Attack 5: the prefetcher attack.

Hiding the speculative loads themselves is not enough if they can still
train a hardware prefetcher: the prefetcher's fills land in ordinary
(non-speculative) caches, so the attacker can observe them after the
speculation is squashed.  Here the victim is tricked into speculatively
walking a short secret-dependent stream; on an unprotected system the L2
stream prefetcher locks on and fetches the lines *ahead* of the stream into
the shared L2, which the attacker then detects by timing.  Under MuonTrap
the prefetcher is trained only by the committed instruction stream
(section 4.6), so squashed accesses leave no trace in it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.attacks.framework import (
    AttackEnvironment,
    AttackOutcome,
    classify_probe,
    LINE_SIZE,
    VICTIM_SECRET_ADDRESS,
)
from repro.common.params import SystemConfig


class PrefetcherAttack:
    """Attack 5 of the paper: leaking through prefetcher training."""

    name = "prefetcher"

    #: How many sequential lines the victim speculatively touches; enough for
    #: the stream detector to reach its confidence threshold even though the
    #: out-of-order access stream reaches it slightly reordered.
    TRAIN_LENGTH = 16
    #: The window of lines the attacker probes: strictly beyond the lines the
    #: victim demanded (so the signal can only come from the prefetcher),
    #: covering where the stream prefetcher runs ahead of the last access.
    PROBE_WINDOW = range(TRAIN_LENGTH, TRAIN_LENGTH + 10)

    def __init__(self, mode: str = "unprotected",
                 secret: int = 2, num_secret_values: int = 4,
                 config: Optional[SystemConfig] = None) -> None:
        # Each candidate value gets its own 4 KiB region of the shared
        # mapping, plus room for the probe window beyond the last region.
        shared_bytes = (num_secret_values + 2) * 0x1000 + 0x1000
        self.environment = AttackEnvironment(
            config=config, mode=mode, num_cores=1, secret=secret,
            num_secret_values=num_secret_values, shared_bytes=shared_bytes)
        self.mode = mode

    def _stream_base(self, value: int) -> int:
        # Distinct 4 KiB regions per candidate value so each candidate trains
        # (or does not train) its own stream-detector entry.
        return self.environment.probe_address(0) + value * 0x1000

    def run(self) -> AttackOutcome:
        env = self.environment
        secret = env.secret

        # Step 2 (victim, speculative, squashed): load the secret, then walk
        # a short stream in the region selected by the secret.
        env.victim_speculative_load(VICTIM_SECRET_ADDRESS)
        base = self._stream_base(secret)
        for step in range(self.TRAIN_LENGTH):
            env.victim_speculative_load(base + step * LINE_SIZE)
        env.victim_squash()

        # Step 3 (attacker): probe the lines ahead of each candidate stream.
        # If the prefetcher was trained by the victim's squashed walk, some
        # line ahead of the real stream is already in the shared L2, so the
        # fastest probe in the window reveals the trained stream.
        latencies: Dict[int, int] = {}
        for value in range(env.num_secret_values):
            fastest = None
            for ahead in self.PROBE_WINDOW:
                probe = self._stream_base(value) + ahead * LINE_SIZE
                latency = env.attacker_load(probe)
                fastest = latency if fastest is None else min(fastest, latency)
            latencies[value] = fastest

        recovered, _ = classify_probe(latencies)
        return AttackOutcome(name=self.name, mode=self.mode,
                             actual_secret=secret,
                             recovered_secret=recovered,
                             probe_latencies=latencies)

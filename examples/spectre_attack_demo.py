"""Run the six Spectre-style attacks of the paper against several defences.

For each attack the script shows the probe timings the attacker observes and
whether the secret leaked, under the unprotected baseline, under MuonTrap
and (for comparison) under InvisiSpec-Future — which hides speculative loads
from the data cache but, as the paper notes, protects neither the prefetcher
nor the instruction cache.

Run with:  python examples/spectre_attack_demo.py
"""

from __future__ import annotations

from repro.attacks import ALL_ATTACKS

#: Registry scheme names (``python -m repro schemes`` lists them all).
MODES = ["unprotected", "muontrap", "invisispec-future"]


def main() -> None:
    for attack_cls in ALL_ATTACKS:
        print(f"=== {attack_cls.name} ===")
        print(attack_cls.__doc__.strip().splitlines()[0])
        for mode in MODES:
            outcome = attack_cls(mode=mode).run()
            verdict = ("SECRET LEAKED" if outcome.succeeded
                       else "no leak")
            timings = ", ".join(
                f"{value}:{latency}"
                for value, latency in sorted(outcome.probe_latencies.items()))
            print(f"  {mode:20s} {verdict:14s} "
                  f"secret={outcome.actual_secret} "
                  f"recovered={outcome.recovered_secret} "
                  f"probe latencies [{timings}]")
        print()


if __name__ == "__main__":
    main()

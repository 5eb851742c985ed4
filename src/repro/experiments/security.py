"""The security evaluation: Attacks 1-6 against every protection mode.

The paper's security argument is qualitative (each attack box names the
defence that stops it); this module makes it executable.  Each attack is run
against the unprotected baseline (where it must succeed) and against
MuonTrap (where it must fail); optionally against the other schemes too, to
show which channels they leave open (e.g. InvisiSpec does not protect the
prefetcher or the instruction cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

from repro.attacks import ALL_ATTACKS, AttackOutcome


@dataclass
class SecurityMatrix:
    """attack name -> {scheme -> leaked?}."""

    outcomes: Dict[str, Dict[str, AttackOutcome]] = field(default_factory=dict)

    def leaked(self, attack: str, mode: str) -> bool:
        return self.outcomes[attack][mode].succeeded

    def rows(self) -> List[List[str]]:
        modes = sorted({mode for per_attack in self.outcomes.values()
                        for mode in per_attack})
        header = ["attack"] + modes
        body = []
        for attack, per_mode in self.outcomes.items():
            body.append([attack] + [
                "LEAK" if per_mode[mode].succeeded else "safe"
                for mode in modes])
        return [header] + body

    def format_table(self) -> str:
        return "\n".join("  ".join(f"{cell:>24s}" for cell in row)
                         for row in self.rows())

    @property
    def muontrap_blocks_everything(self) -> bool:
        return all(not per_mode["muontrap"].succeeded
                   for per_mode in self.outcomes.values()
                   if "muontrap" in per_mode)

    @property
    def unprotected_leaks_everything(self) -> bool:
        return all(per_mode["unprotected"].succeeded
                   for per_mode in self.outcomes.values()
                   if "unprotected" in per_mode)


def run_security_evaluation(
        modes: Optional[Sequence[str]] = None,
        attacks: Optional[Sequence[Type]] = None) -> SecurityMatrix:
    """Run every attack against every requested protection scheme.

    ``modes`` are registry scheme names; the default pits the baseline
    that must leak against the scheme that must not.
    """
    modes = list(modes or ["unprotected", "muontrap"])
    attacks = list(attacks or ALL_ATTACKS)
    matrix = SecurityMatrix()
    for attack_cls in attacks:
        per_mode: Dict[str, AttackOutcome] = {}
        for mode in modes:
            per_mode[mode] = attack_cls(mode=mode).run()
        matrix.outcomes[attack_cls.name] = per_mode
    return matrix

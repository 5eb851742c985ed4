"""Baseline and comparison memory systems.

The unprotected baseline, the insecure-L0 ablation, InvisiSpec and STT.
Like MuonTrap, each is a :class:`~repro.core.frontend.SchemeFrontend`
over the shared non-speculative hierarchy.
"""

from repro.baselines.insecure_l0 import InsecureL0MemorySystem
from repro.baselines.invisispec import InvisiSpecMemorySystem
from repro.baselines.stt import STTMemorySystem
from repro.baselines.unprotected import UnprotectedMemorySystem

__all__ = [
    "InsecureL0MemorySystem",
    "InvisiSpecMemorySystem",
    "STTMemorySystem",
    "UnprotectedMemorySystem",
]

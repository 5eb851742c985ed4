"""repro: a reproduction of MuonTrap (Ainsworth & Jones, ISCA 2020).

The package is organised around the paper's structure:

* :mod:`repro.core` — the contribution: speculative filter caches and the
  MuonTrap memory system;
* :mod:`repro.caches`, :mod:`repro.coherence`, :mod:`repro.prefetch`,
  :mod:`repro.tlb`, :mod:`repro.memory`, :mod:`repro.cpu` — the simulated
  substrate (cache hierarchy, MESI coherence, prefetchers, TLBs, DRAM and an
  out-of-order core model);
* :mod:`repro.baselines` — the systems MuonTrap is compared against
  (unprotected, insecure L0, InvisiSpec, STT);
* :mod:`repro.attacks` — the six Spectre-style attacks of the paper;
* :mod:`repro.workloads` — synthetic SPEC CPU2006 / Parsec workload models;
* :mod:`repro.sim` and :mod:`repro.experiments` — the experiment harness
  that regenerates every figure of the evaluation;
* :mod:`repro.harness` — the campaign layer: named benchmark suites,
  parallel execution of suite × configuration × seed matrices, a
  persistent result store and report rendering, exposed on the command
  line as ``python -m repro``;
* :mod:`repro.api` — the stable public facade (``simulate`` /
  ``compare`` / ``sweep``) everything above routes through;
* :mod:`repro.schemes` — the pluggable protection-scheme registry
  (:class:`~repro.schemes.SchemeSpec`) the simulator dispatches on.
"""

from repro.common.params import (
    CoreConfig,
    ProtectionConfig,
    SystemConfig,
)

__version__ = "1.0.0"

__all__ = [
    "CoreConfig",
    "ProtectionConfig",
    "SystemConfig",
    "api",
    "schemes",
    "__version__",
]


def __getattr__(name: str):
    # Lazy submodule access: ``repro.api`` / ``repro.schemes`` import the
    # simulation stack, which plain ``import repro`` should not pay for.
    if name in ("api", "schemes"):
        import importlib
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

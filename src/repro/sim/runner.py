"""Experiment settings shared by the campaign layer and the figures.

Every performance figure in the paper reports execution time normalised
to the unprotected baseline; this module holds what those comparisons
share: the run-length and worker-count settings and the standard series
of machines (the five schemes of Figures 3 and 4, the cumulative
ablations of Figures 8 and 9).  The runs themselves go through
:mod:`repro.api` and the campaign layer (:mod:`repro.harness.campaign`).

The number of instructions per workload is configurable; the
``REPRO_INSTRUCTIONS`` environment variable overrides the default so a
campaign can be scaled to the available time budget, and ``REPRO_JOBS``
sets its worker count.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.common.params import ProtectionConfig, SystemConfig

DEFAULT_INSTRUCTIONS = 8000
DEFAULT_WARMUP_FRACTION = 0.35


def env_int(name: str, minimum: int = 1) -> Optional[int]:
    """Read an integer environment variable, or ``None`` when unset.

    A set-but-non-integer value is a configuration mistake; fail with a
    clear message naming the variable instead of an uncaught
    ``ValueError`` from ``int()`` deep inside the harness.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be an integer, "
            f"got {raw!r}") from None
    if value < minimum:
        # A set-but-too-small value (REPRO_JOBS=0, REPRO_INSTRUCTIONS=10)
        # is the same class of configuration mistake as a non-integer one;
        # silently clamping it would hide the error.
        raise ValueError(
            f"environment variable {name} must be at least {minimum}, "
            f"got {raw!r}")
    return value


def instructions_per_workload(explicit: Optional[int] = None) -> int:
    """Instruction sample length.

    Precedence: an ``explicit`` request (a CLI flag, a constructor
    argument) wins outright; otherwise the ``REPRO_INSTRUCTIONS``
    environment variable; otherwise :data:`DEFAULT_INSTRUCTIONS`.  An
    explicit request must be an integer of at least 1 (a bool is not a
    count).
    """
    if explicit is not None:
        if (not isinstance(explicit, int) or isinstance(explicit, bool)
                or explicit < 1):
            raise ValueError(f"instructions must be an integer of at "
                             f"least 1, got {explicit!r}")
        return explicit
    value = env_int("REPRO_INSTRUCTIONS", minimum=500)
    if value is not None:
        return value
    return DEFAULT_INSTRUCTIONS


def parallel_jobs(default: Optional[int] = None) -> int:
    """Worker-pool size, overridable via ``REPRO_JOBS``.

    When the variable is unset, ``default`` wins (callers that must stay
    sequential pass ``1``); a ``default`` of ``None`` means "use every
    core".
    """
    value = env_int("REPRO_JOBS", minimum=1)
    if value is not None:
        return value
    if default is not None:
        return max(1, default)
    return os.cpu_count() or 1


def standard_modes(num_cores: int = 1) -> Dict[str, SystemConfig]:
    """The five schemes compared in Figures 3 and 4.

    Derived from the scheme registry (the specs flagged
    ``figure_series``), so a registered scheme can opt into the standard
    comparison without this module changing.
    """
    from repro.schemes import figure_series_schemes
    base = SystemConfig(num_cores=num_cores)
    return {spec.display_name: base.with_mode(spec.name)
            for spec in figure_series_schemes()}


def unprotected_config(num_cores: int = 1) -> SystemConfig:
    return SystemConfig(num_cores=num_cores,
                        mode="unprotected")


def cumulative_protection_configs(num_cores: int = 1,
                                  include_parallel_l1: bool = False
                                  ) -> Dict[str, SystemConfig]:
    """The cumulative ablation series of Figures 8 and 9.

    Each label enables the mechanisms of the previous one plus one more,
    matching the legend of the figures: ``insecure L0`` -> ``fcache only``
    -> ``coherency`` -> ``ifcache`` -> ``prefetching`` -> ``clear misspec``
    (-> ``parallel L1d`` for Figure 9).
    """
    base = SystemConfig(num_cores=num_cores, mode="muontrap")
    none = ProtectionConfig.none()
    configs: Dict[str, SystemConfig] = {
        "insecure L0": SystemConfig(
            num_cores=num_cores, mode="insecure-l0",
            protection=none),
        "fcache only": base.with_protection(ProtectionConfig(
            data_filter_cache=True, instruction_filter_cache=False,
            filter_tlb=False, coherence_protection=False,
            commit_time_prefetch=False, clear_on_misspeculate=False)),
        "coherency": base.with_protection(ProtectionConfig(
            data_filter_cache=True, instruction_filter_cache=False,
            filter_tlb=False, coherence_protection=True,
            commit_time_prefetch=False, clear_on_misspeculate=False)),
        "ifcache": base.with_protection(ProtectionConfig(
            data_filter_cache=True, instruction_filter_cache=True,
            filter_tlb=True, coherence_protection=True,
            commit_time_prefetch=False, clear_on_misspeculate=False)),
        "prefetching": base.with_protection(ProtectionConfig(
            data_filter_cache=True, instruction_filter_cache=True,
            filter_tlb=True, coherence_protection=True,
            commit_time_prefetch=True, clear_on_misspeculate=False)),
        "clear misspec": base.with_protection(ProtectionConfig(
            data_filter_cache=True, instruction_filter_cache=True,
            filter_tlb=True, coherence_protection=True,
            commit_time_prefetch=True, clear_on_misspeculate=True)),
    }
    if include_parallel_l1:
        configs["parallel L1d"] = base.with_protection(ProtectionConfig(
            data_filter_cache=True, instruction_filter_cache=True,
            filter_tlb=True, coherence_protection=True,
            commit_time_prefetch=True, clear_on_misspeculate=False,
            parallel_l1_access=True))
    return configs

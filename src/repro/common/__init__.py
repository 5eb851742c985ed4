"""Shared configuration, statistics and utility code."""

from repro.common.addresses import (
    AddressRange,
    block_align,
    block_number,
    block_offset,
    page_align,
    page_number,
    page_offset,
    set_index,
)
from repro.common.params import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    FilterCacheConfig,
    MemoryConfig,
    PipelineConfig,
    ProtectionConfig,
    SystemConfig,
    TLBConfig,
    big_core,
    biglittle_system_config,
    heterogeneous_corun_config,
    little_core,
)
from repro.common.rng import DeterministicRng
from repro.common.statistics import Counter, Histogram, StatGroup, geometric_mean, ratio

__all__ = [
    "AddressRange",
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "Counter",
    "DeterministicRng",
    "FilterCacheConfig",
    "Histogram",
    "MemoryConfig",
    "PipelineConfig",
    "ProtectionConfig",
    "StatGroup",
    "SystemConfig",
    "TLBConfig",
    "big_core",
    "biglittle_system_config",
    "block_align",
    "block_number",
    "block_offset",
    "heterogeneous_corun_config",
    "little_core",
    "geometric_mean",
    "page_align",
    "page_number",
    "page_offset",
    "ratio",
    "set_index",
]

"""Set-associative caches, replacement policies, MSHRs and the hierarchy."""

from repro.caches.base_cache import SetAssociativeCache
from repro.caches.cache_line import CacheLine
from repro.caches.hierarchy import NonSpeculativeHierarchy
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import (
    LRUReplacement,
    RandomReplacement,
    ReplacementPolicy,
    TreePLRUReplacement,
    make_replacement_policy,
)

__all__ = [
    "CacheLine",
    "LRUReplacement",
    "NonSpeculativeHierarchy",
    "MSHRFile",
    "RandomReplacement",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "TreePLRUReplacement",
    "make_replacement_policy",
]

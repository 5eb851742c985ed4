"""Prefetchers: the shared-L2 stream prefetcher and its interface."""

from repro.prefetch.base import NullPrefetcher, Prefetcher, TrainingEvent
from repro.prefetch.stream import StreamEntry, StreamPrefetcher

__all__ = [
    "NullPrefetcher",
    "Prefetcher",
    "StreamEntry",
    "StreamPrefetcher",
    "TrainingEvent",
]

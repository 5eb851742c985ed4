"""Prefetchers and the MuonTrap commit-time prefetch channel."""

from repro.prefetch.base import NullPrefetcher, Prefetcher, TrainingEvent
from repro.prefetch.commit_channel import (
    CommitPrefetchChannel,
    PrefetchNotification,
)
from repro.prefetch.stream import StreamEntry, StreamPrefetcher

__all__ = [
    "CommitPrefetchChannel",
    "NullPrefetcher",
    "PrefetchNotification",
    "Prefetcher",
    "StreamEntry",
    "StreamPrefetcher",
    "TrainingEvent",
]

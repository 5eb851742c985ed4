"""The commit-time prefetch notification channel (section 4.6).

Under MuonTrap a prefetcher must never observe speculative accesses, so the
filter cache tags each line with the hierarchy level it was filled from and,
when an instruction using the line commits, sends a *prefetch notification*
to that level.  This module implements the channel: it queues notifications,
delivers them to the prefetcher attached to the named level and hands the
resulting prefetch candidates back to the hierarchy so they can be filled
into the non-speculative cache.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.common.statistics import StatGroup
from repro.prefetch.base import Prefetcher, TrainingEvent

# Callback used to install a prefetched line into a non-speculative cache.
# Arguments: line_address, cycle at which the prefetch was issued.
PrefetchFillHandler = Callable[[int, int], None]


@dataclass(frozen=True, slots=True)
class PrefetchNotification:
    """One commit-time notification: which line committed, from which level."""

    line_address: int
    pc: int
    level: str
    cycle: int
    was_miss: bool = True


class CommitPrefetchChannel:
    """Routes commit-time notifications to per-level prefetchers."""

    def __init__(self, stats: Optional[StatGroup] = None,
                 queue_capacity: int = 64) -> None:
        self.queue_capacity = queue_capacity
        self._prefetchers: Dict[str, Prefetcher] = {}
        self._fill_handlers: Dict[str, PrefetchFillHandler] = {}
        self._queue: Deque[PrefetchNotification] = deque()
        stats = stats or StatGroup("commit_prefetch")
        self.stats = stats
        self._notifications = stats.counter("notifications")
        self._dropped = stats.counter("dropped_notifications")
        self._prefetches = stats.counter("prefetches_generated")

    def attach(self, level: str, prefetcher: Prefetcher,
               fill_handler: PrefetchFillHandler) -> None:
        """Register the prefetcher and fill path for one hierarchy level."""
        self._prefetchers[level] = prefetcher
        self._fill_handlers[level] = fill_handler

    def notify(self, notification: PrefetchNotification) -> None:
        """Queue a notification generated by a committing instruction."""
        if notification.level not in self._prefetchers:
            # Section 4.6: only levels that actually have a prefetcher are
            # notified, "to avoid triggering unnecessary prefetches".
            return
        if len(self._queue) >= self.queue_capacity:
            self._dropped.increment()
            return
        self._notifications.increment()
        self._queue.append(notification)

    def drain(self, now: int) -> List[int]:
        """Deliver all queued notifications; returns issued prefetch lines."""
        issued: List[int] = []
        while self._queue:
            notification = self._queue.popleft()
            prefetcher = self._prefetchers[notification.level]
            fill = self._fill_handlers[notification.level]
            event = TrainingEvent(address=notification.line_address,
                                  pc=notification.pc,
                                  cycle=notification.cycle,
                                  was_miss=notification.was_miss)
            for line in prefetcher.train(event):
                fill(line, now)
                issued.append(line)
                self._prefetches.increment()
        return issued

    @property
    def pending(self) -> int:
        return len(self._queue)

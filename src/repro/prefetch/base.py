"""Prefetcher interface.

Prefetchers observe a stream of training events (demand accesses to the
cache they are attached to) and emit candidate prefetch addresses.  Under an
unprotected system the training events arrive as soon as a (possibly
speculative, possibly wrong-path) access touches the cache; under MuonTrap
they arrive only when an access commits
(:meth:`~repro.caches.hierarchy.NonSpeculativeHierarchy.notify_commit_prefetch`,
section 4.6), so the prefetcher never learns anything about squashed
execution.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.common.statistics import StatGroup


class TrainingEvent(NamedTuple):
    """One observation given to a prefetcher: an address and its cycle.

    It carries no pc, since the stream prefetcher keys on address regions.
    An immutable record; a named tuple rather than a frozen dataclass
    because one is built for every training event, and a frozen
    dataclass's ``__init__`` sets each field through ``object.__setattr__``.
    """

    address: int
    cycle: int


class Prefetcher:
    """Base class: train on accesses, propose prefetch line addresses."""

    def __init__(self, line_size: int = 64,
                 stats: Optional[StatGroup] = None) -> None:
        self.line_size = line_size
        stats = stats or StatGroup("prefetcher")
        self.stats = stats
        self._trainings = stats.counter("training_events")
        self._issued = stats.counter("prefetches_issued")

    def train(self, event: TrainingEvent) -> List[int]:
        """Observe one access; return line addresses to prefetch (maybe [])."""
        self._trainings.value += 1
        candidates = self._propose(event)
        self._issued.value += len(candidates)
        return candidates

    def _propose(self, event: TrainingEvent) -> List[int]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all training state (used on context switches in tests)."""

    @property
    def prefetches_issued(self) -> int:
        return self._issued.value

    @property
    def training_events(self) -> int:
        return self._trainings.value


class NullPrefetcher(Prefetcher):
    """A prefetcher that never prefetches (for caches without one)."""

    def _propose(self, event: TrainingEvent) -> List[int]:
        return []

"""Wall-clock phase timers for the harness (`--profile` support).

A cell of a campaign goes through distinct phases — trace generation,
packing, simulation, reporting — whose relative cost is what a profile of
the harness actually needs, long before a function-level profile makes
sense.  :func:`phase` times a block against the process-wide
:data:`PHASES` accumulator::

    with phase("simulate"):
        result = simulator.run(workload)

``python -m repro run --profile ...`` prints the accumulated phase report
next to the cProfile output.  Phase timing measures harness wall-clock,
never simulated time, and costs two ``perf_counter`` calls per block — it
is always on; only the *report* is gated behind ``--profile``.  Cells
that run in pool workers send their timings back with their results
(:mod:`repro.harness.executor`), so the report covers pooled campaigns too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class PhaseTimers:
    """Accumulates total wall-clock seconds and entry counts per phase."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record externally measured time (e.g. from a worker).

        ``count`` entries into ``name`` took ``seconds`` in total.
        """
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + count

    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()

    def report(self) -> str:
        """A small fixed-width table, slowest phase first."""
        if not self._totals:
            return "no phases recorded"
        width = max(len(name) for name in self._totals)
        lines = [f"{'phase':<{width}}  {'seconds':>9}  {'calls':>6}"]
        for name in sorted(self._totals, key=self._totals.get, reverse=True):
            lines.append(f"{name:<{width}}  {self._totals[name]:>9.3f}  "
                         f"{self._counts[name]:>6}")
        return "\n".join(lines)


#: The process-wide accumulator the harness reports under ``--profile``.
PHASES = PhaseTimers()


def phase(name: str):
    """Time a block against the process-wide :data:`PHASES` accumulator."""
    return PHASES.phase(name)

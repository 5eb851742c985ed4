"""Shared configuration for the benchmark harness.

Every benchmark regenerates one exhibit of the paper.  The harness routes
through the campaign layer (:mod:`repro.harness`): each figure's run
matrix executes on a ``multiprocessing`` pool sized by ``REPRO_JOBS``
(default: every core), and when ``REPRO_STORE`` names a directory the
per-cell results are persisted there, so re-running the harness only
simulates cells that are not already cached.

The sample length per workload is deliberately small by default so the
whole harness runs in a few minutes; set ``REPRO_INSTRUCTIONS`` to a
larger value (the paper uses 1-billion-instruction samples in gem5) for
higher-fidelity numbers.  Clear the store (``python -m repro clean``)
after changing simulator code — results are keyed by their inputs, not by
the code that produced them.
"""

import os

import pytest

from repro.harness.store import ResultStore
from repro.sim.runner import instructions_per_workload, parallel_jobs

#: Default per-workload sample length for the benchmark harness.
BENCH_INSTRUCTIONS = instructions_per_workload(default=1000)


@pytest.fixture(scope="session")
def store():
    """Persistent result store, enabled by setting ``REPRO_STORE``."""
    path = os.environ.get("REPRO_STORE")
    return ResultStore(path) if path else None


@pytest.fixture(scope="session")
def options(store) -> dict:
    """Figure options shared by every benchmark; the one in-memory
    ``cache`` lets later figures reuse earlier figures' baseline cells."""
    return {"instructions": BENCH_INSTRUCTIONS, "store": store,
            "jobs": parallel_jobs(), "cache": {}}


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)

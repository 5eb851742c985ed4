"""Reproduction of every performance figure in the paper's evaluation.

Each ``figure*`` function runs the simulations behind the corresponding
exhibit and returns a :class:`~repro.harness.report.Report`: the
figure's description as its title, the per-benchmark ``series`` the figure
plots in the figure's own benchmark order, and the headline aggregate the
text quotes as its ``geomeans`` footer (the geometric mean of normalised
times, or Figure 7's arithmetic mean of rates).  The number of
instructions per workload (and therefore the runtime) is controlled by the
``REPRO_INSTRUCTIONS`` environment variable.

The functions are deliberately small wrappers over
:func:`repro.api.build_comparison`, so they can be called both from the
figure-shape tests (``tests/experiments/test_figure_shapes.py``) and from
the examples.
Every keyword option (``instructions``, ``seed``, ``store``, ``jobs``,
``cache``) is passed straight to it: ``jobs`` (or ``REPRO_JOBS``) sets the
worker pool, ``store`` persists results across invocations and a shared
``cache`` dict lets several figures reuse each other's cells.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro import api
from repro.common.params import SystemConfig
from repro.harness.campaign import DEFAULT_SEED
from repro.harness.report import Report
from repro.sim.runner import (
    cumulative_protection_configs,
    standard_modes,
    unprotected_config,
)
from repro.sim.sweeps import (
    DEFAULT_ASSOCIATIVITY_SWEEP,
    DEFAULT_SIZE_SWEEP,
    filter_cache_associativity_configs,
    filter_cache_size_configs,
)
from repro.workloads.profiles import (
    parsec_benchmarks,
    spec_benchmarks,
)


def _normalised_figure(description: str, benchmarks: Sequence[str],
                       configs: Mapping[str, SystemConfig], num_cores: int,
                       options: Dict[str, Any]) -> Report:
    """Run ``configs`` over ``benchmarks`` against the unprotected machine."""
    result = api.build_comparison(
        configs, list(benchmarks),
        baseline=unprotected_config(num_cores=num_cores), **options).run()
    return Report(benchmarks=list(benchmarks), series=result.normalised(),
                  title=description, failed=result.failed_series())


def figure3(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 3: SPEC CPU2006 normalised execution time for all five schemes."""
    return _normalised_figure(
        "Normalised execution time, SPEC CPU2006: MuonTrap vs "
        "InvisiSpec and STT (lower is better)",
        benchmarks or spec_benchmarks(), standard_modes(num_cores=1),
        num_cores=1, options=options)


def figure4(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 4: Parsec (4 threads) normalised execution time."""
    return _normalised_figure(
        "Normalised execution time, Parsec with 4 threads: "
        "MuonTrap vs InvisiSpec and STT (lower is better)",
        benchmarks or parsec_benchmarks(), standard_modes(num_cores=4),
        num_cores=4, options=options)


def figure5(sizes: Optional[Sequence[int]] = None,
            benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 5: fully associative filter-cache size sweep on Parsec."""
    configs = {f"{size}B": config for size, config in
               filter_cache_size_configs(list(sizes or DEFAULT_SIZE_SWEEP),
                                         num_cores=4).items()}
    return _normalised_figure(
        "Normalised execution time with a fully associative "
        "data filter cache of varying size, Parsec",
        benchmarks or parsec_benchmarks(), configs, num_cores=4,
        options=options)


def figure6(associativities: Optional[Sequence[int]] = None,
            benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 6: associativity sweep of the 2 KiB filter cache on Parsec."""
    configs = {f"{ways}-way": config for ways, config in
               filter_cache_associativity_configs(
                   list(associativities or DEFAULT_ASSOCIATIVITY_SWEEP),
                   num_cores=4).items()}
    return _normalised_figure(
        "Normalised execution time when varying the "
        "associativity of a 2 KiB filter cache, Parsec",
        benchmarks or parsec_benchmarks(), configs, num_cores=4,
        options=options)


def figure7(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 7: proportion of writes triggering filter-cache invalidates.

    A quarantined cell has no rate: the table shows ``FAILED`` for it, and
    the mean covers the other benchmarks.
    """
    benchmarks = list(benchmarks or spec_benchmarks())
    outcome = api.build_comparison(
        ["muontrap"], benchmarks, baseline=None, warmup_fraction=0.0,
        collect_stats=True, **options).run()
    label = "write fcache-invalidate rate"
    rates: Dict[str, float] = {}
    for benchmark in benchmarks:
        try:
            stats = outcome.result(benchmark, outcome.labels[0]).stats
        except KeyError:
            continue
        stores = stats.get("system.memory_system.committed_stores", 0)
        broadcasts = stats.get(
            "system.memory_system.store_filter_broadcasts", 0)
        rates[benchmark] = broadcasts / stores if stores else 0.0
    mean = sum(rates.values()) / len(rates) if rates else 0.0
    return Report(
        benchmarks=benchmarks, series={label: rates},
        geomeans={label: mean},
        failed={(benchmark, label)
                for benchmark, _ in outcome.failed_series()},
        title="Proportion of committed stores that trigger a filter-cache "
              "invalidation broadcast under MuonTrap, SPEC CPU2006")


def figure8(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 8: cumulative protection mechanisms on Parsec."""
    return _normalised_figure(
        "Normalised execution time from cumulatively adding "
        "protection mechanisms, Parsec",
        benchmarks or parsec_benchmarks(),
        cumulative_protection_configs(num_cores=4,
                                      include_parallel_l1=False),
        num_cores=4, options=options)


def figure9(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> Report:
    """Figure 9: cumulative protection mechanisms on SPEC CPU2006."""
    return _normalised_figure(
        "Normalised execution time from cumulatively adding "
        "protection mechanisms, SPEC CPU2006",
        benchmarks or spec_benchmarks(),
        cumulative_protection_configs(num_cores=1,
                                      include_parallel_l1=True),
        num_cores=1, options=options)


def metrics_over_time(benchmark: str, scheme: str = "muontrap",
                      every: int = 1000, *,
                      seed: int = DEFAULT_SEED,
                      instructions: Optional[int] = None):
    """A benchmark's metrics sampled every N cycles, for over-time plots.

    Runs one instrumented simulation through :func:`repro.api.simulate`
    and returns its :class:`~repro.telemetry.metrics.TimeSeries` — MPKI,
    squash rate or filter occupancy over simulated time, e.g.::

        series = metrics_over_time("mcf", "muontrap", every=1000)
        mpki = series.rate("system.memory_system.data_misses",
                           "system.core0.committed_instructions",
                           scale=1000)

    The figures above plot end-of-run aggregates; this is the entry point
    for the time-resolved view of the same runs.
    """
    outcome = api.simulate(
        benchmark, scheme, seed=seed, instructions=instructions,
        warmup_fraction=0.0, collect_stats=True, metrics_every=every)
    return outcome.timeseries


ALL_FIGURES = {
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
}

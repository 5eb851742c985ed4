"""The stable public API of the reproduction.

Everything a consumer needs lives behind three calls:

* :func:`simulate` — one workload on one machine, returning a typed
  :class:`SimulationOutcome`;
* :func:`compare` — a suite × scheme (or machine) matrix normalised
  against a baseline, returning a :class:`ComparisonOutcome`;
* :func:`sweep` — :func:`compare` over a single configuration parameter
  (``"data_filter.size_bytes"``, ``"l2.associativity"``, ...), returning a
  :class:`SweepOutcome`.

All three accept *machine-likes* anywhere a machine is expected — a
:class:`~repro.common.params.SystemConfig`, a registered scheme name
(``"muontrap"``), a machine-preset name (``"biglittle-asym"``), a
description dict (:mod:`repro.common.machine`), or a path to a machine
JSON file — and *workload-likes* (benchmark / mix names or profile
objects) anywhere a workload is expected.  :func:`resolve_machine` and
:func:`resolve_workload` are that one authoritative resolution path; the
command line, the figure reproductions and the examples all construct
their systems through it.

Execution routes through the campaign layer, so the facade inherits its
guarantees: deterministic results independent of worker count, in-memory
content-hash caching, and incremental persistence when a
:class:`~repro.harness.store.ResultStore` is attached.

Quickstart::

    from repro import api

    outcome = api.simulate("mcf", "muontrap", seed=42)
    print(outcome.cycles, outcome.ipc)

    comparison = api.compare(["muontrap", "stt-spectre"], suite="spec_int")
    print(comparison.render())
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.common.machine import load_machine, machine_from_dict
from repro.common.params import SystemConfig
from repro.harness.campaign import (
    Campaign,
    CampaignResult,
    DEFAULT_SEED,
    RunSpec,
    execute_cells,
    run_cell,
)
from repro.harness.report import Report
from repro.harness.store import ResultStore
from repro.schemes import get_scheme, is_registered
from repro.sim.runner import DEFAULT_WARMUP_FRACTION, instructions_per_workload
from repro.sim.simulator import SimulationResult
from repro.telemetry.metrics import MetricsSampler, TimeSeries
from repro.telemetry.tracer import Tracer
from repro.workloads.profiles import get_profile

#: Anything that resolves to a machine configuration.
MachineLike = Union[SystemConfig, str, os.PathLike, Mapping]
#: Anything that resolves to a workload profile.
WorkloadLike = Union[str, object]

#: The scheme every comparison normalises against unless told otherwise.
DEFAULT_BASELINE = "unprotected"


# -- resolution ---------------------------------------------------------------

def resolve_workload(workload: WorkloadLike):
    """Resolve a workload-like to its profile object.

    Accepts a benchmark or mix name (``"mcf"``, ``"mix-quad"``) or any
    profile object carrying ``name``/``suite``/``num_threads`` (a
    :class:`~repro.workloads.profiles.WorkloadProfile` or
    :class:`~repro.workloads.mixes.MixProfile`).
    """
    if isinstance(workload, str):
        return get_profile(workload)
    for attribute in ("name", "suite", "num_threads"):
        if not hasattr(workload, attribute):
            raise TypeError(
                f"workload must be a benchmark name or a profile object; "
                f"{workload!r} has no {attribute!r}")
    return workload


def resolve_machine(machine: Optional[MachineLike] = None) -> SystemConfig:
    """Resolve a machine-like to a :class:`SystemConfig`.

    ``None`` is the Table 1 default machine.  Strings resolve in order:
    machine-preset name, registered scheme name (the default machine under
    that scheme), then path to a machine JSON file.  Mappings go through
    :func:`repro.common.machine.machine_from_dict`.
    """
    if machine is None:
        return SystemConfig()
    if isinstance(machine, SystemConfig):
        return machine
    if isinstance(machine, Mapping):
        return machine_from_dict(dict(machine))
    if isinstance(machine, os.PathLike):
        return load_machine(machine)
    if isinstance(machine, str):
        from repro.workloads.mixes import MACHINE_PRESETS, get_machine
        if machine in MACHINE_PRESETS:
            return get_machine(machine)
        if is_registered(machine):
            return SystemConfig(mode=machine)
        if machine.endswith(".json") or os.path.sep in machine \
                or Path(machine).exists():
            return load_machine(machine)
        from repro.workloads.mixes import machine_names
        from repro.schemes import scheme_names
        raise ValueError(
            f"unknown machine {machine!r}: not a machine preset "
            f"({', '.join(machine_names())}), not a registered scheme "
            f"({', '.join(scheme_names())}), and not a machine file on "
            f"disk")
    raise TypeError(f"cannot interpret {machine!r} as a machine")


def machine_label(machine: Optional[MachineLike]) -> str:
    """The default series label of a machine-like (used by :func:`compare`)."""
    if machine is None:
        return SystemConfig().mode_label
    if isinstance(machine, str):
        from repro.workloads.mixes import MACHINE_PRESETS
        if machine in MACHINE_PRESETS:
            return machine
        if is_registered(machine):
            return get_scheme(machine).display_name
        return Path(machine).stem
    if isinstance(machine, os.PathLike):
        return Path(machine).stem
    return resolve_machine(machine).mode_label


# -- outcomes -----------------------------------------------------------------

@dataclass(frozen=True)
class SimulationOutcome:
    """The result of one :func:`simulate` call."""

    benchmark: str
    label: str
    machine: SystemConfig
    seed: int
    instructions_requested: int
    result: SimulationResult
    #: Telemetry attachments — populated only by instrumented runs
    #: (``simulate(trace=..., chrome_trace=..., metrics_every=...)``).
    tracer: Optional[Tracer] = None
    trace_path: Optional[Path] = None
    chrome_path: Optional[Path] = None
    timeseries: Optional[TimeSeries] = None

    @property
    def scheme(self) -> str:
        """The machine's scheme label (one name, or the per-core list)."""
        return self.machine.mode_label

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def instructions(self) -> int:
        return self.result.instructions

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def time(self) -> float:
        """Execution time in reference-clock cycles (frequency-scaled)."""
        return self.result.time

    @property
    def wall_seconds(self) -> float:
        """Simulated wall-clock execution time in seconds."""
        return self.result.wall_seconds

    @property
    def stats(self) -> Dict[str, int]:
        return self.result.stats

    def normalised_to(self, baseline: "SimulationOutcome") -> float:
        """Execution time relative to a baseline outcome (lower is better)."""
        if not baseline.time:
            return 0.0
        return self.time / baseline.time


@dataclass(frozen=True)
class ComparisonOutcome:
    """The result of one :func:`compare` call (a normalised matrix)."""

    campaign: Campaign
    result: CampaignResult

    @property
    def benchmarks(self) -> List[str]:
        return list(self.result.benchmarks)

    @property
    def labels(self) -> List[str]:
        """Series labels, baseline excluded."""
        return [label for label in self.result.labels
                if label != self.result.baseline_label]

    @property
    def baseline_label(self) -> str:
        return self.result.baseline_label

    def outcome(self, benchmark: str, label: str,
                seed: Optional[int] = None) -> SimulationOutcome:
        """The typed outcome of one cell of the matrix."""
        run = self.result.result(benchmark, label, seed)
        return SimulationOutcome(
            benchmark=benchmark, label=label,
            machine=self.campaign._series()[label],
            seed=self.result.seeds[0] if seed is None else seed,
            instructions_requested=self.campaign.instructions, result=run)

    def normalised(self) -> Dict[str, Dict[str, float]]:
        """label -> {benchmark -> time normalised to the baseline}."""
        return self.result.normalised()

    def geomeans(self) -> Dict[str, float]:
        return self.result.geomeans()

    def render(self, fmt: str = "text", title: str = "") -> str:
        """The normalised table in ``text`` / ``markdown`` / ``csv``."""
        return Report.from_campaign(self.result, title=title).render(fmt)


@dataclass(frozen=True)
class SweepOutcome:
    """The result of one :func:`sweep` call: one series per value."""

    parameter: str
    values: List[Any]
    comparison: ComparisonOutcome

    def normalised(self) -> Dict[str, Dict[str, float]]:
        return self.comparison.normalised()

    def geomeans(self) -> Dict[str, float]:
        """str(value) -> geomean normalised time."""
        return self.comparison.geomeans()

    def best_value(self) -> Any:
        """The swept value with the lowest geomean normalised time."""
        geomeans = self.geomeans()
        return min(self.values, key=lambda value: geomeans[str(value)])

    def render(self, fmt: str = "text") -> str:
        return self.comparison.render(
            fmt, title=f"Sweep over {self.parameter}")


# -- the facade ---------------------------------------------------------------

def simulate(workload: WorkloadLike,
             machine: Optional[MachineLike] = None, *,
             scheme: Optional[str] = None,
             seed: int = DEFAULT_SEED,
             instructions: Optional[int] = None,
             warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
             collect_stats: bool = False,
             label: Optional[str] = None,
             store: Optional[ResultStore] = None,
             cache: Optional[Dict[str, SimulationResult]] = None,
             trace: Union[bool, str, os.PathLike, Tracer, None] = None,
             chrome_trace: Union[str, os.PathLike, None] = None,
             metrics_every: Optional[int] = None
             ) -> SimulationOutcome:
    """Run one workload on one machine and return a typed outcome.

    ``workload`` and ``machine`` take anything :func:`resolve_workload` /
    :func:`resolve_machine` accept.  ``scheme`` overrides the machine's
    protection scheme uniformly (``simulate("mcf", scheme="stt-future")``).
    ``instructions`` defaults to ``REPRO_INSTRUCTIONS`` or the module
    default; the machine is widened automatically when the workload needs
    more cores.  ``store`` and ``cache`` opt into the campaign layer's
    persistent / in-memory result reuse.

    The telemetry options run the cell *instrumented*: ``trace=True``
    collects cycle-level events on the returned ``outcome.tracer``, a path
    additionally writes them as JSONL, a :class:`Tracer` collects into
    your own instance (preserving its category filter); ``chrome_trace``
    writes a Perfetto-loadable Chrome trace; ``metrics_every=N`` snapshots
    the statistics tree every N cycles onto ``outcome.timeseries``.
    Instrumented runs always simulate inline — caches are neither
    consulted nor written, because a cached result has no event stream.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    profile = resolve_workload(workload)
    config = resolve_machine(machine)
    if scheme is not None:
        config = config.with_mode(scheme)
    label = label or (machine_label(machine) if scheme is None
                      else get_scheme(scheme).display_name)
    spec = RunSpec(profile=profile, label=label, config=config,
                   instructions=instructions_per_workload(instructions),
                   seed=seed, warmup_fraction=warmup_fraction,
                   collect_stats=collect_stats)
    instrumented = ((trace is not None and trace is not False)
                    or chrome_trace is not None or metrics_every is not None)
    if instrumented:
        return _simulate_instrumented(spec, trace=trace,
                                      chrome_trace=chrome_trace,
                                      metrics_every=metrics_every)
    results = execute_cells([spec], jobs=1, store=store, cache=cache)
    return SimulationOutcome(
        benchmark=profile.name, label=label, machine=config, seed=seed,
        instructions_requested=spec.instructions,
        result=results[spec.key()])


def _simulate_instrumented(spec: RunSpec, *,
                           trace: Union[bool, str, os.PathLike, Tracer, None],
                           chrome_trace: Union[str, os.PathLike, None],
                           metrics_every: Optional[int]
                           ) -> SimulationOutcome:
    """One cell, run inline with telemetry attached.

    Runs through the same :func:`~repro.harness.campaign.run_cell` as the
    cached path, so an instrumented run's cycles and statistics are
    bit-identical to an uninstrumented one's.
    """
    tracer: Optional[Tracer] = None
    if (trace is not None and trace is not False) or chrome_trace is not None:
        tracer = trace if isinstance(trace, Tracer) else Tracer()
    sampler = (MetricsSampler(metrics_every)
               if metrics_every is not None else None)
    # ``run_cell`` is bound at import: a profiler may replace
    # ``campaign.run_cell`` with a one-argument wrapper
    # (``perfbench/layers.py`` does), which these keywords would break.
    result = run_cell(spec, tracer=tracer, sampler=sampler)
    trace_path: Optional[Path] = None
    if tracer is not None and isinstance(trace, (str, os.PathLike)):
        trace_path = Path(trace)
        tracer.write_jsonl(trace_path)
    chrome_path: Optional[Path] = None
    if tracer is not None and chrome_trace is not None:
        chrome_path = Path(chrome_trace)
        tracer.write_chrome(chrome_path)
    return SimulationOutcome(
        benchmark=spec.benchmark, label=spec.label, machine=spec.config,
        seed=spec.seed, instructions_requested=spec.instructions,
        result=result, tracer=tracer, trace_path=trace_path,
        chrome_path=chrome_path,
        timeseries=sampler.timeseries if sampler is not None else None)


def _entry_config(entry: Any, base: SystemConfig) -> SystemConfig:
    """One series entry: scheme names apply to the base machine, the rest
    resolve as machines."""
    if isinstance(entry, str) and is_registered(entry):
        return base.with_mode(entry)
    return resolve_machine(entry)


def _entry_label(entry: Any) -> str:
    if isinstance(entry, str) and is_registered(entry):
        return get_scheme(entry).display_name
    return machine_label(entry)


def _series_configs(schemes: Union[Sequence[Any], Mapping[str, Any]],
                    base: SystemConfig) -> Dict[str, SystemConfig]:
    """Expand :func:`compare`'s series argument into label -> config."""
    if isinstance(schemes, Mapping):
        return {str(label): _entry_config(entry, base)
                for label, entry in schemes.items()}
    configs: Dict[str, SystemConfig] = {}
    for entry in schemes:
        label = _entry_label(entry)
        if label in configs:
            # Silently overwriting would drop a requested series.
            raise ValueError(
                f"two compared machines derive the same series label "
                f"{label!r}; pass an explicit {{label: machine}} mapping "
                f"to disambiguate")
        configs[label] = _entry_config(entry, base)
    return configs


def compare(schemes: Union[Sequence[Any], Mapping[str, Any]],
            suite: Union[str, Sequence[str]] = "spec_int", *,
            machine: Optional[MachineLike] = None,
            baseline: Optional[MachineLike] = DEFAULT_BASELINE,
            instructions: Optional[int] = None,
            seed: int = DEFAULT_SEED,
            replicates: int = 1,
            warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
            collect_stats: bool = False,
            store: Optional[ResultStore] = None,
            jobs: Optional[int] = None,
            max_retries: Optional[int] = None,
            cell_timeout: Optional[float] = None,
            progress: Optional[Callable[[int, int], None]] = None
            ) -> ComparisonOutcome:
    """Run a suite × scheme matrix normalised against a baseline.

    ``schemes`` is a sequence of scheme names and/or machine-likes (series
    labels come from the registry's display names / preset names), or an
    explicit label -> machine-like mapping.  ``machine`` is the base
    machine scheme names are applied to (default: the Table 1 machine).
    ``baseline`` follows the same rules (default: the unprotected scheme);
    pass ``None`` to normalise against the first series instead.

    Execution is supervised (:mod:`repro.harness.executor`):
    ``max_retries`` / ``cell_timeout`` override the ``REPRO_MAX_RETRIES``
    / ``REPRO_CELL_TIMEOUT`` defaults; cells that fail permanently are
    quarantined on ``outcome.result.failures`` rather than aborting the
    matrix.  ``progress`` observes ``(done, total)`` over the unique
    cells (the simulation service uses this for job-status polling);
    ``None`` keeps the default TTY progress line.
    """
    campaign = build_comparison(
        schemes, suite, machine=machine, baseline=baseline,
        instructions=instructions, seed=seed, replicates=replicates,
        warmup_fraction=warmup_fraction, collect_stats=collect_stats,
        store=store, jobs=jobs, max_retries=max_retries,
        cell_timeout=cell_timeout)
    return ComparisonOutcome(campaign=campaign,
                             result=campaign.run(progress=progress))


def build_comparison(schemes: Union[Sequence[Any], Mapping[str, Any]],
                     suite: Union[str, Sequence[str]] = "spec_int", *,
                     machine: Optional[MachineLike] = None,
                     baseline: Optional[MachineLike] = DEFAULT_BASELINE,
                     baseline_label: str = "baseline",
                     instructions: Optional[int] = None,
                     seed: int = DEFAULT_SEED,
                     replicates: int = 1,
                     warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                     collect_stats: bool = False,
                     store: Optional[ResultStore] = None,
                     jobs: Optional[int] = None,
                     cache: Optional[Dict[str, SimulationResult]] = None,
                     max_retries: Optional[int] = None,
                     cell_timeout: Optional[float] = None
                     ) -> Campaign:
    """The :class:`Campaign` behind :func:`compare`, not yet executed.

    The command line uses this to run the same matrix under a profiler,
    and the figure reproductions to share one in-memory result ``cache``;
    ordinary callers want :func:`compare`.
    """
    base = resolve_machine(machine)
    configs = _series_configs(schemes, base)
    if not configs:
        raise ValueError("compare needs at least one scheme or machine")
    baseline_config = None
    if baseline is not None:
        baseline_config = _entry_config(baseline, base)
    suites = [suite] if isinstance(suite, str) else list(suite)
    return Campaign.from_suites(
        suites, configs=configs, baseline_config=baseline_config,
        baseline_label=baseline_label, instructions=instructions,
        seed=seed, replicates=replicates, warmup_fraction=warmup_fraction,
        collect_stats=collect_stats, store=store, jobs=jobs, cache=cache,
        max_retries=max_retries, cell_timeout=cell_timeout)


def _replace_path(config: Any, path: str, value: Any) -> Any:
    """Replace a (possibly nested) configuration field by dotted path.

    Machine-level ``SystemConfig`` fields go through ``_override`` so an
    explicit per-core ``cores`` list is updated too — the per-core entries
    are what actually drive construction, and leaving them stale would
    silently ignore the swept value (every machine preset carries such a
    list).  The machine-level ``core`` pipeline maps onto the per-core
    ``pipeline`` field by hand, since the names differ.
    """
    head, _, rest = path.partition(".")
    if head not in getattr(type(config), "__dataclass_fields__", {}):
        raise ValueError(
            f"{type(config).__name__} has no field {head!r} "
            f"(sweep parameter paths use dots: 'data_filter.size_bytes')")
    if rest:
        value = _replace_path(getattr(config, head), rest, value)
    if isinstance(config, SystemConfig):
        if head == "core" and config.cores is not None:
            return replace(config, core=value, cores=tuple(
                replace(core, pipeline=value) for core in config.cores))
        return config._override(**{head: value})
    return replace(config, **{head: value})


def sweep(parameter: str, values: Sequence[Any],
          suite: Union[str, Sequence[str]] = "spec_int", *,
          machine: Optional[MachineLike] = None,
          scheme: Optional[str] = None,
          baseline: Optional[MachineLike] = DEFAULT_BASELINE,
          instructions: Optional[int] = None,
          seed: int = DEFAULT_SEED,
          replicates: int = 1,
          warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
          store: Optional[ResultStore] = None,
          jobs: Optional[int] = None,
          progress: Optional[Callable[[int, int], None]] = None
          ) -> SweepOutcome:
    """Sweep one configuration parameter across ``values``.

    ``parameter`` is a dotted path into :class:`SystemConfig`
    (``"data_filter.size_bytes"``, ``"l2.associativity"``,
    ``"core.width"``); each value becomes one series labelled
    ``str(value)``, normalised against ``baseline`` like any comparison.
    """
    campaign = _build_sweep(
        parameter, values, suite, machine=machine, scheme=scheme,
        baseline=baseline, instructions=instructions, seed=seed,
        replicates=replicates, warmup_fraction=warmup_fraction, store=store,
        jobs=jobs)
    comparison = ComparisonOutcome(campaign=campaign,
                                   result=campaign.run(progress=progress))
    return SweepOutcome(parameter=parameter, values=list(values),
                        comparison=comparison)


def _build_sweep(parameter: str, values: Sequence[Any],
                 suite: Union[str, Sequence[str]] = "spec_int", *,
                 machine: Optional[MachineLike] = None,
                 scheme: Optional[str] = None,
                 **options: Any) -> Campaign:
    """The :class:`Campaign` behind :func:`sweep`, not yet executed;
    ``options`` are :func:`build_comparison`'s."""
    base = resolve_machine(machine)
    if scheme is not None:
        base = base.with_mode(scheme)
    series = {str(value): _replace_path(base, parameter, value)
              for value in values}
    if len(series) != len(values):
        raise ValueError(f"sweep values must be unique, got {values!r}")
    # The baseline must be the *swept* base machine under the baseline
    # scheme, not the Table 1 default — otherwise normalised times would
    # compare across different machines.
    return build_comparison(series, suite, machine=base, **options)


__all__ = [
    "ComparisonOutcome",
    "DEFAULT_BASELINE",
    "MachineLike",
    "SimulationOutcome",
    "SweepOutcome",
    "WorkloadLike",
    "build_comparison",
    "compare",
    "machine_label",
    "resolve_machine",
    "resolve_workload",
    "simulate",
    "sweep",
]

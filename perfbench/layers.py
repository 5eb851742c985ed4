"""Per-layer measurement from outside the program.

Everything here wraps *public* calls of the ``repro`` package at run time;
no source under ``src/`` is touched.  Three instruments:

* :class:`SpanRecorder` times the layer boundaries (trace generation,
  packing and execution planning, system construction, the simulation loop, the campaign
  harness, trace materialisation and store I/O).  Each span records its
  name, start, end and parent; a layer's *self* time is its duration minus
  the time of the spans nested inside it.  ``execute_cells`` calls also
  yield their :class:`~repro.harness.campaign.ExecutionStats`.
* :class:`PackageProfiler` runs every simulated cell (``run_cell``) under
  :mod:`cProfile` and sums self time and call counts by ``repro``
  sub-package.
* :func:`model_counters` reads the simulated statistics that say how much
  of the work a fast path could serve (hit ratios, snoops, page walks).

Records are kept in memory.  A process that cannot hand them back (a
service process, or a worker forked by it) appends them to a JSONL file
per process in a spool directory instead; :func:`read_spool` collects them.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: (layer, module, attribute path) of each public call that is timed.  A
#: function imported by name into several modules is wrapped in each; the
#: defining module's own binding covers callers that import it when they
#: run (``materialize_shared_traces``, ``generate_mix``).
SPAN_TARGETS = (
    ("workloads.generate", "repro.workloads.generator", "generate_workload"),
    ("workloads.generate", "repro.harness.campaign", "generate_workload"),
    ("workloads.pack", "repro.workloads.trace", "Trace.packed"),
    ("workloads.pack", "repro.workloads.trace", "PackedTrace.plan"),
    ("sim.build_system", "repro.harness.campaign", "build_system"),
    ("sim.run", "repro.sim.simulator", "Simulator.run"),
    ("harness.execute_cells", "repro.harness.campaign", "execute_cells"),
    ("harness.execute_cells", "repro.api", "execute_cells"),
    ("harness.materialize", "repro.harness.campaign",
     "materialize_shared_traces"),
    ("harness.store_put", "repro.harness.store", "StoreBackend.put"),
    ("harness.store_get", "repro.harness.store", "StoreBackend.get"),
)

#: The layers reported as per-layer metrics (``<layer>_s``).
SPAN_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPAN_TARGETS))

#: Profiled package -> the ``repro`` sub-packages counted in it.
PACKAGES = {
    "cpu": ("cpu",),
    "core": ("core",),
    "caches": ("caches",),
    "coherence": ("coherence",),
    "tlb": ("tlb", "memory"),
    "prefetch": ("prefetch",),
    "baselines": ("baselines",),
}
_PACKAGE_OF = {sub: name for name, subs in PACKAGES.items() for sub in subs}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    import importlib
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner: Any, attribute: str,
                make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class _Sink:
    """Where records go: a list, or a per-process JSONL spool file."""

    def __init__(self, spool: Optional[Path]) -> None:
        self.spool = spool
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._handle = None
        self._pid = None
        # A worker forked while another thread held the lock would
        # otherwise deadlock on its first record.
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if self.spool is None:
                self.records.append(record)
                return
            if self._pid != os.getpid():  # first record, or a forked child
                self._pid = os.getpid()
                self._handle = open(self.spool / f"{self._pid}.jsonl", "a")
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()


class SpanRecorder:
    """Times calls into the public layer boundaries listed in
    :data:`SPAN_TARGETS`."""

    def __init__(self, spool: Optional[Path] = None) -> None:
        self._sink = _Sink(spool)
        self._local = threading.local()
        self._patches = _Patches()

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self._sink.records

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span of layer ``name``."""
        stack = self._stack()
        frame = [name, time.perf_counter(), 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            self._sink.emit({
                "kind": "span", "name": name, "parent": parent,
                "start": frame[1], "end": end,
                "self": duration - frame[2], "pid": os.getpid()})

    def _timed(self, name: str, function: Callable) -> Callable:
        recorder = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            with recorder.span(name):
                return function(*args, **kwargs)
        return timed

    def _with_stats(self, function: Callable) -> Callable:
        """``execute_cells`` with its ExecutionStats captured."""
        recorder = self

        @functools.wraps(function)
        def counted(*args, **kwargs):
            from repro.harness.campaign import ExecutionStats
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = ExecutionStats()
            before = (stats.executed, stats.store_hits, stats.retries,
                      stats.executed_seconds, stats.wall_seconds)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._sink.emit({
                    "kind": "stats",
                    "executed": stats.executed - before[0],
                    "store_hits": stats.store_hits - before[1],
                    "retries": stats.retries - before[2],
                    "executed_seconds": stats.executed_seconds - before[3],
                    "wall_seconds": stats.wall_seconds - before[4],
                    "workers": stats.workers})
        return counted

    def install(self) -> "SpanRecorder":
        # Resolve (and so import) every target before patching any: a
        # module imported mid-way would bind an already wrapped function.
        targets = [(layer, *_resolve(module_name, path))
                   for layer, module_name, path in SPAN_TARGETS]
        for layer, owner, attribute in targets:
            def wrap(function, layer=layer):
                if layer == "harness.execute_cells":
                    function = self._with_stats(function)
                return self._timed(layer, function)
            self._patches.replace(owner, attribute, wrap)
        return self

    def uninstall(self) -> None:
        self._patches.undo()


class PackageProfiler:
    """Profiles every ``run_cell`` call and sums by ``repro`` package."""

    def __init__(self, spool: Optional[Path] = None) -> None:
        self._sink = _Sink(spool)
        self._patches = _Patches()

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self._sink.records

    def _profiled(self, run_cell: Callable) -> Callable:
        profiler = self

        @functools.wraps(run_cell)
        def profiled(spec):
            profile = cProfile.Profile()
            started = time.perf_counter()
            profile.enable()
            try:
                return run_cell(spec)
            finally:
                profile.disable()
                profiler._sink.emit({
                    "kind": "profile",
                    "cell_seconds": time.perf_counter() - started,
                    "packages": package_totals(profile)})
        return profiled

    def install(self) -> "PackageProfiler":
        import repro.harness.campaign as campaign
        self._patches.replace(campaign, "run_cell", self._profiled)
        return self

    def uninstall(self) -> None:
        self._patches.undo()


def package_totals(profile: cProfile.Profile) -> Dict[str, List[float]]:
    """package -> [self seconds, calls] over the ``repro`` functions."""
    totals: Dict[str, List[float]] = {name: [0.0, 0] for name in PACKAGES}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: not a repro layer
            continue
        parts = code.co_filename.replace(os.sep, "/").split("/repro/", 1)
        if len(parts) != 2:
            continue
        package = _PACKAGE_OF.get(parts[1].split("/", 1)[0])
        if package is not None:
            totals[package][0] += entry.inlinetime
            totals[package][1] += entry.callcount
    return totals


def read_spool(spool: Path) -> List[Dict[str, Any]]:
    records = []
    for path in sorted(spool.glob("*.jsonl")):
        with path.open() as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def summarise(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics from span, stats and profile records."""
    self_time: Dict[str, float] = defaultdict(float)
    harness = defaultdict(float)
    packages: Dict[str, List[float]] = {name: [0.0, 0] for name in PACKAGES}
    for record in records:
        if record["kind"] == "span":
            self_time[record["name"]] += record["self"]
        elif record["kind"] == "stats":
            for key in ("executed", "store_hits", "retries"):
                harness[key] += record[key]
            if record["executed"]:
                harness["busy"] += record["executed_seconds"]
                harness["capacity"] += (record["wall_seconds"]
                                        * max(1, record["workers"]))
        else:
            for name, (seconds, calls) in record["packages"].items():
                packages[name][0] += seconds
                packages[name][1] += calls
    metrics = {f"{name}_s": self_time.get(name, 0.0) for name in SPAN_LAYERS}
    metrics.update({
        "harness.executed": int(harness["executed"]),
        "harness.store_hits": int(harness["store_hits"]),
        "harness.retries": int(harness["retries"]),
        "harness.worker_utilisation": (
            min(1.0, harness["busy"] / harness["capacity"])
            if harness["capacity"] else 0.0),
    })
    for name, (seconds, calls) in packages.items():
        metrics[f"{name}.self_s"] = seconds
        metrics[f"{name}.calls"] = int(calls)
    return metrics


def model_counters(results: Iterable[Any]) -> Dict[str, float]:
    """Hit ratios and per-kilo-instruction event rates over results
    simulated with ``collect_stats=True``.

    The statistics cover the whole run, warm-up included, so the rates
    divide by every committed instruction, not only the measured ones.
    """
    sums: Dict[str, float] = defaultdict(float)
    for result in results:
        sums["kinst"] += (result.instructions
                          + sum(result.core_warmup_instructions)) / 1000.0
        for key, value in result.stats.items():
            for suffix in ("l1d.hits", "l1d.misses", "data_filter.hits",
                           "data_filter.misses", "bus.snoops",
                           "walker.walks"):
                if key.endswith(suffix):
                    sums[suffix] += value

    def ratio(hits: str, misses: str) -> float:
        total = sums[hits] + sums[misses]
        return sums[hits] / total if total else 0.0

    kinst = sums["kinst"] or 1.0
    return {
        "caches.l1d_hit_ratio": ratio("l1d.hits", "l1d.misses"),
        "core.dfilter_hit_ratio": ratio("data_filter.hits",
                                        "data_filter.misses"),
        "coherence.snoops_per_kinst": sums["bus.snoops"] / kinst,
        "tlb.walks_per_kinst": sums["walker.walks"] / kinst,
    }

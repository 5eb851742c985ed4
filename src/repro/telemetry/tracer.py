"""The cycle-level event tracer.

Design goals, in order:

1. **Zero cost when disabled.**  The hot loop
   (:meth:`~repro.cpu.core.OutOfOrderCore.run_packed`) reads the
   module-level active tracer once per call into a local.  Its pipeline
   hook points sit behind tests of that local, so an untraced run makes
   no extra call, and a traced run takes every op through the same loop
   with the same timing.  The memory-side hook points
   are *instance-attribute* method wrappers installed by
   :meth:`Tracer.attach`, so an untraced cache/bus/MMU instance executes
   the plain class methods with no guard at all.  The tier-1 test
   ``tests/telemetry/test_disabled_cost.py`` enforces this by pinning the
   call counts of untraced runs.
2. **Deterministic.**  Events are stamped with simulated cycles (never
   wall-clock) and appended in execution order, so a seed-pinned run
   produces a byte-identical JSONL stream across runs, hosts and worker
   counts.
3. **Viewable.**  :meth:`Tracer.write_chrome` exports Chrome trace-event
   JSON: open the file at https://ui.perfetto.dev (or ``chrome://tracing``)
   to see per-core pipeline activity with cache/coherence/filter events
   overlaid as instants.

Typical use goes through the facade —
``repro.api.simulate(benchmark, trace="run.jsonl")`` — but the layer is
usable directly::

    from repro.telemetry import Tracer, tracing

    tracer = Tracer()
    tracer.attach(system)          # instrument caches, bus, filters, MMUs
    with tracing(tracer):          # pipeline hook points become live
        simulator.run(workload)
    tracer.write_jsonl("run.jsonl")
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

from repro.telemetry.events import TraceEvent

# The module-level no-op guard.  ``active_tracer()`` is the only thing the
# pipeline hot path ever consults; it returns None in the common case and
# the hook points fall straight through.
_ACTIVE: Optional["Tracer"] = None


def active_tracer() -> Optional["Tracer"]:
    """The tracer pipeline hook points emit to, or None (the default)."""
    return _ACTIVE


def activate(tracer: "Tracer") -> None:
    """Install ``tracer`` as the active tracer (process-wide)."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE is not tracer:
        raise RuntimeError("another tracer is already active; "
                           "deactivate it first")
    _ACTIVE = tracer


def deactivate() -> None:
    """Remove the active tracer; hook points become no-ops again."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(tracer: Optional["Tracer"]) -> Iterator[Optional["Tracer"]]:
    """Activate ``tracer`` for the duration of the block.

    ``tracing(None)`` is a no-op context, so callers can thread an optional
    tracer through without branching.
    """
    if tracer is None:
        yield None
        return
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()


class Tracer:
    """Collects :class:`TraceEvent` records from the opt-in hook points.

    ``categories`` restricts collection to a subset of event categories
    (e.g. ``{"pipeline", "coherence"}``); the default records everything.

    :attr:`now` is the tracer's cycle cursor: the pipeline hook points keep
    it at the cycle currently being simulated.  An event emitted without a
    cycle of its own is stamped with it: a cache's wrapped ``access``
    stamps its hit or miss event with the cursor, not with the cycle the
    access is timed at.
    """

    def __init__(self, categories: Optional[Any] = None) -> None:
        self.events: List[TraceEvent] = []
        self.now = 0
        self._categories = (frozenset(categories)
                            if categories is not None else None)
        #: Per-core registry scheme names, recorded by :meth:`attach`.
        self.core_schemes: Dict[int, str] = {}

    # -- collection -----------------------------------------------------------
    def emit(self, category: str, name: str, cycle: Optional[int] = None,
             core: Optional[int] = None, address: Optional[int] = None,
             pc: Optional[int] = None, **detail: Any) -> None:
        """Record one event; ``cycle=None`` stamps with :attr:`now`."""
        if self._categories is not None and category not in self._categories:
            return
        self.events.append(TraceEvent(
            cycle=self.now if cycle is None else cycle,
            category=category, name=name, core=core, address=address,
            pc=pc, detail=detail))

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Dict[Tuple[str, str], int]:
        """Event counts keyed by ``(category, name)``."""
        totals: Dict[Tuple[str, str], int] = {}
        for event in self.events:
            key = (event.category, event.name)
            totals[key] = totals.get(key, 0) + 1
        return totals

    def clear(self) -> None:
        self.events.clear()
        self.now = 0

    # -- instrumentation ------------------------------------------------------
    def attach(self, system: Any) -> None:
        """Instrument a :class:`~repro.sim.system.SimulatedSystem`.

        Walks the shared hierarchy (per-core L1s, private L2s, the shared
        LLC and the coherence bus) and every core's frontend state (MMUs,
        L0 caches) and installs the instance-level trace wrappers.
        Event records carry registry scheme names (``muontrap``,
        ``invisispec-spectre``, ...).
        """
        config = system.config
        self.core_schemes = {
            core_id: config.core_config(core_id).mode
            for core_id in range(config.num_cores)}
        for core_id in sorted(self.core_schemes):
            self.emit("meta", "core_scheme", cycle=0, core=core_id,
                      scheme=self.core_schemes[core_id])
        if system.hierarchy is not None:
            self._attach_hierarchy(system.hierarchy, config.num_cores)
        for core_id, state in system.core_states():
            state.data_mmu.attach_tracer(self, "dmmu", core=core_id)
            state.inst_mmu.attach_tracer(self, "immu", core=core_id)
            for unit in (state.data_filter, state.inst_filter):
                if unit is not None:
                    unit.attach_tracer(self, unit.name, core=core_id)

    def _attach_hierarchy(self, hierarchy: Any, num_cores: int) -> None:
        hierarchy.l2.attach_tracer(self, "l2")
        hierarchy.bus.attach_tracer(self)
        for core_id in range(num_cores):
            hierarchy.l1d(core_id).attach_tracer(self, "l1d", core=core_id)
            hierarchy.l1i(core_id).attach_tracer(self, "l1i", core=core_id)
            private = hierarchy.private_l2(core_id)
            if private is not None:
                private.attach_tracer(self, "l2p", core=core_id)

    # -- export -----------------------------------------------------------------
    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write one JSON object per event; returns the event count.

        The output is deterministic (sorted keys, no wall-clock fields):
        a seed-pinned run produces a byte-identical file every time.
        """
        if hasattr(destination, "write"):
            for event in self.events:
                destination.write(event.to_json())
                destination.write("\n")
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                return self.write_jsonl(handle)
        return len(self.events)

    def write_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Write Chrome trace-event JSON (Perfetto / ``chrome://tracing``).

        Pipeline ``commit`` events (which carry their issue cycle) become
        complete events — one slice per instruction from issue to commit —
        with one process (pid) per core; everything else becomes an
        instant event on a per-category track.  Timestamps are simulated
        cycles presented as microseconds, so a 100-cycle load shows as a
        100 "us" slice.
        """
        trace_events: List[Dict[str, Any]] = []
        for event in self.events:
            pid = event.core if event.core is not None else 0
            args = dict(event.detail)
            if event.address is not None:
                args["addr"] = hex(event.address)
            if event.pc is not None:
                args["pc"] = hex(event.pc)
            if (event.category == "pipeline" and event.name == "commit"
                    and "issue" in event.detail):
                issue = event.detail["issue"]
                trace_events.append({
                    "name": event.detail.get("kind", "op"),
                    "cat": event.category, "ph": "X",
                    "ts": issue, "dur": max(0, event.cycle - issue),
                    "pid": pid, "tid": "pipeline", "args": args})
            else:
                trace_events.append({
                    "name": event.name, "cat": event.category, "ph": "i",
                    "ts": event.cycle, "s": "t",
                    "pid": pid, "tid": event.category, "args": args})
        payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        if hasattr(destination, "write"):
            json.dump(payload, destination, sort_keys=True,
                      separators=(",", ":"))
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True,
                          separators=(",", ":"))
        return len(trace_events)

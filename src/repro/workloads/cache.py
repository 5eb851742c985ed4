"""Content-hash-keyed caching of generated workload traces.

Generating a workload trace is pure: the same (profile, instructions, seed,
process_id) always produces the same instruction stream.  Campaigns exploit
the same property for *results* via :mod:`repro.harness.store`; this module
applies it one layer down, to the traces themselves — a suite × config ×
seed sweep runs every benchmark under several protection schemes, and
without a cache each scheme regenerates an identical trace.

Three tiers, mirroring the result store:

* a fork-inherited **shared registry** of pre-materialised workloads
  (:func:`materialize_shared_traces`): the campaign parent generates each
  distinct trace once — packed columns and execution plans included —
  *before* the worker pool forks, so every worker attaches to the same
  read-only copy-on-write pages instead of re-generating or re-unpickling
  traces per process.  Disable with ``REPRO_SHARED_TRACES=off``;
* an in-process LRU of recently generated workloads (always on), sized by
  ``MEMORY_ENTRIES`` so worker memory stays bounded;
* an optional on-disk tier enabled by pointing the ``REPRO_TRACE_CACHE``
  environment variable at a directory; entries are pickled per-key files
  written atomically, so parallel campaign workers share generated traces
  without contention.

Set ``REPRO_TRACE_CACHE=off`` to disable the LRU and disk tiers entirely
(fresh generation on every call — useful for benchmarking the generator
itself); the shared registry is separate and only ever filled explicitly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro.common.jsonable import jsonable
from repro.telemetry.log import get_logger, log_event
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import WorkloadTraces

#: Environment variable: a directory enables the on-disk tier, ``off`` (or
#: ``none``/``0``/``disabled``) disables caching altogether, unset/empty
#: keeps the in-memory tier only.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Environment variable: set to ``off`` (or ``none``/``0``/``disabled``/
#: ``false``) to stop campaigns from pre-materialising traces into the
#: fork-inherited shared registry (default: enabled).
SHARED_TRACES_ENV = "REPRO_SHARED_TRACES"

#: Bump when the trace layout changes; stale on-disk entries are ignored.
TRACE_CACHE_VERSION = 2

#: Workloads kept in the in-process LRU tier.
MEMORY_ENTRIES = 8

_DISABLED_VALUES = frozenset({"off", "none", "0", "disabled", "false"})

#: Distinguishes temporary files written by concurrent threads of one
#: process; the pid distinguishes processes.
_TMP_COUNTER = itertools.count()


def trace_key(profile: WorkloadProfile, instructions: int, seed: int,
              process_id: int) -> str:
    """Content hash identifying one generated workload.

    Covers the full profile (not just its name, so ad-hoc profiles cannot
    collide with registry entries) plus every generation parameter.
    """
    payload = {
        "profile": jsonable(profile),
        "instructions": instructions,
        "seed": seed,
        "process_id": process_id,
        "version": TRACE_CACHE_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


class TraceCache:
    """An in-memory LRU with an optional on-disk tier of pickled traces."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 memory_entries: int = MEMORY_ENTRIES) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as error:
                # An unusable directory must not break simulation either:
                # keep the memory tier alone.
                log_event(get_logger("workloads.cache"),
                          "trace_cache_unavailable", _level=logging.WARNING,
                          root=self.root, reason=type(error).__name__)
                self.root = None
        self.memory_entries = max(1, memory_entries)
        self._memory: "OrderedDict[str, WorkloadTraces]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Optional[Path]:
        return None if self.root is None else self.root / f"{key}.pkl"

    def get(self, key: str) -> Optional[WorkloadTraces]:
        workload = self._memory.get(key)
        if workload is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return workload
        path = self._path(key)
        if path is not None:
            try:
                with path.open("rb") as handle:
                    payload = pickle.load(handle)
            except FileNotFoundError:
                payload = None
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError,
                    ValueError) as error:
                # A corrupt on-disk entry would otherwise fail again on
                # every run; evict it so the next put rewrites it cleanly.
                payload = None
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                log_event(get_logger("workloads.cache"),
                          "trace_cache_evicted", _level=logging.WARNING,
                          key=key, reason=type(error).__name__)
            if (isinstance(payload, dict)
                    and payload.get("version") == TRACE_CACHE_VERSION):
                workload = payload["workload"]
                self._remember(key, workload)
                self.hits += 1
                return workload
        self.misses += 1
        return None

    def put(self, key: str, workload: WorkloadTraces) -> None:
        self._remember(key, workload)
        path = self._path(key)
        if path is None:
            return
        payload = {"version": TRACE_CACHE_VERSION, "key": key,
                   "workload": workload}
        # Unique per (process, thread-interleaving) so concurrent writers
        # of the same key never collide on the intermediate file; the
        # leading dot keeps it out of the ``*.pkl`` globs.
        tmp = (self.root / f".{key}.{os.getpid()}."
                           f"{next(_TMP_COUNTER)}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk must not break simulation.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def _remember(self, key: str, workload: WorkloadTraces) -> None:
        self._memory[key] = workload
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def clear(self) -> int:
        """Drop every cached workload (both tiers); returns entries removed."""
        removed = len(self._memory)
        self._memory.clear()
        if self.root is not None:
            for path in self.root.glob("*.pkl"):
                path.unlink()
                removed += 1
            for path in self.root.glob(".*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        count = len(self._memory)
        if self.root is not None:
            on_disk = {path.stem for path in self.root.glob("*.pkl")}
            count += len(on_disk - set(self._memory))
        return count


_active_cache: Optional[TraceCache] = None
_active_signature: Optional[str] = None


def active_trace_cache() -> Optional[TraceCache]:
    """The process-wide cache configured by ``REPRO_TRACE_CACHE``.

    Re-reads the environment on every call so tests (and long-lived
    sessions) can reconfigure caching without restarting the process; the
    cache instance is only rebuilt when the setting actually changes.
    """
    global _active_cache, _active_signature
    signature = os.environ.get(TRACE_CACHE_ENV, "").strip()
    if signature.lower() in _DISABLED_VALUES:
        return None
    if _active_cache is None or signature != _active_signature:
        _active_cache = TraceCache(Path(signature) if signature else None)
        _active_signature = signature
    return _active_cache


def reset_trace_cache() -> None:
    """Forget the process-wide cache (test helper)."""
    global _active_cache, _active_signature
    _active_cache = None
    _active_signature = None


# -- fork-inherited shared trace registry --------------------------------------
#
# ``multiprocessing`` with the ``fork`` start method gives child processes
# a copy-on-write view of the parent's heap.  Traces are immutable once
# generated (the harness-wide contract), so a workload materialised in the
# campaign parent *before* the pool forks is physically shared with every
# worker: the packed columns and execution plans live in pages that are
# never written, hence never copied.  Workers attach by key through
# :func:`shared_trace_lookup`; nothing is pickled, nothing is regenerated.
#
# The registry is deliberately not wired to ``REPRO_TRACE_CACHE``: it is
# only ever filled explicitly (by ``execute_cells`` just before forking)
# and emptied explicitly when the pool is gone, so its lifetime is exactly
# one campaign execution.

_shared_traces: dict = {}


def shared_traces_enabled() -> bool:
    """Whether campaigns may pre-materialise traces (default: yes)."""
    raw = os.environ.get(SHARED_TRACES_ENV, "").strip().lower()
    return raw not in _DISABLED_VALUES


def shared_trace_lookup(profile: WorkloadProfile, instructions: int,
                        seed: int, process_id: int
                        ) -> Optional[WorkloadTraces]:
    """The shared registry's entry for one generation request, if any.

    Cheap when the registry is empty (no key is hashed), which is every
    process that is not part of a shared-trace campaign.
    """
    if not _shared_traces:
        return None
    return _shared_traces.get(
        trace_key(profile, instructions, seed, process_id))


def materialize_shared_traces(requests) -> int:
    """Generate each distinct workload once, into the shared registry.

    ``requests`` is an iterable of ``(profile, instructions, seed)``
    generation requests — typically one per pending campaign cell, with
    duplicates (the same benchmark under several configurations) welcome.
    Mix profiles are expanded into their constituents, mirroring how
    :func:`~repro.workloads.mixes.generate_mix` composes them at run time.

    Each workload is generated through the ordinary cache tiers, then
    *fully materialised* — its default execution plan built — so forked
    workers inherit finished read-only structures and never fault in
    derived data of their own.  Returns the number of workloads newly
    registered.
    """
    from repro.workloads.generator import generate_workload
    from repro.workloads.mixes import MixProfile
    from repro.workloads.trace import DEFAULT_LINE_SIZE

    flat = []
    for profile, instructions, seed in requests:
        if isinstance(profile, MixProfile):
            flat.extend((profile.member_profile(process_id), instructions,
                         seed) for process_id in range(len(profile.members)))
        else:
            flat.append((profile, instructions, seed))
    registered = 0
    for profile, instructions, seed in flat:
        key = trace_key(profile, instructions, seed, 0)
        if key in _shared_traces:
            continue
        workload = generate_workload(profile, instructions, seed=seed)
        for trace in workload:
            trace.packed().plan(DEFAULT_LINE_SIZE)
        _shared_traces[key] = workload
        registered += 1
    if registered:
        log_event(get_logger("workloads.cache"), "shared_traces_ready",
                  registered=registered, total=len(_shared_traces))
    return registered


def shared_trace_count() -> int:
    return len(_shared_traces)


def clear_shared_traces() -> int:
    """Empty the shared registry; returns the number of entries dropped.

    Called by the campaign layer once its worker pool is gone (normal
    completion, quarantine-laden completion, or interrupt): the parent's
    references are what keep the shared pages alive, and a long-lived
    process running several campaigns must not accumulate every trace it
    ever materialised.  Already-forked workers are unaffected — their
    copy-on-write view is independent of the parent's dict.
    """
    dropped = len(_shared_traces)
    _shared_traces.clear()
    return dropped

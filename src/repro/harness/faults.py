"""Deterministic fault injection for the campaign harness.

The executor layer (:mod:`repro.harness.executor`) promises that a sweep
survives worker crashes, hangs and corrupted store entries with the
determinism guarantee intact — the final results are byte-identical to a
fault-free run.  This module makes that promise *testable*: the
``REPRO_FAULTS`` environment variable describes a seed-driven plan of
faults to inject at chosen cells, and the chaos test tier runs real
campaigns under that plan and compares them bit-for-bit against clean
runs.

A plan is a comma-separated list of ``kind:rate:seed[:attempts]`` specs::

    REPRO_FAULTS=exc:0.5:7            # half the cells raise once
    REPRO_FAULTS=kill:0.3:3,hang:0.1:9
    REPRO_FAULTS=exc:1.0:7:2          # every cell raises on attempts 0 and 1

* ``kind`` — what to inject:

  - ``exc``     the worker raises :class:`InjectedFault` inside the cell;
  - ``hang``    the worker sleeps past any per-cell timeout;
  - ``kill``    the worker dies abruptly via ``os._exit`` (models OOM-kill
    / SIGKILL: no exception, no cleanup, no reply to the supervisor);
  - ``corrupt`` the just-written result-store entry is torn (models a
    crash mid-write; the store's integrity check must evict it).

* ``rate`` — fraction of cells affected, in ``[0, 1]``.
* ``seed`` — drives *which* cells are affected.  The decision for a cell
  is a pure function of ``(seed, kind, cell key)``, so every worker,
  retry and re-run agrees on where the faults are — no shared state, no
  randomness at decision time.
* ``attempts`` — inject on attempts ``0 .. attempts-1`` only (default 1,
  i.e. *transient*: the first retry succeeds).  A large value makes the
  fault effectively permanent, which is how the quarantine path is
  tested.

Faults are injected at two points: worker-side (``exc``/``hang``/``kill``)
around :func:`repro.harness.campaign.run_cell`, and supervisor-side
(``corrupt``) right after a result is persisted.  Production code never
imports the decisions — when ``REPRO_FAULTS`` is unset,
:func:`active_fault_plan` returns ``None`` and the harness pays a single
environment lookup per cell.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.telemetry.log import get_logger, log_event

#: Environment variable holding the fault plan (empty/unset = no faults).
FAULTS_ENV = "REPRO_FAULTS"

#: The fault kinds a spec may name.
FAULT_KINDS = ("exc", "hang", "kill", "corrupt")

#: Worker-side kinds (applied around ``run_cell``); ``corrupt`` is
#: supervisor-side.
WORKER_FAULT_KINDS = ("exc", "hang", "kill")

#: Exit code of a ``kill``-faulted worker (distinctive in supervisor logs).
KILL_EXIT_CODE = 87

#: How long a ``hang`` fault sleeps.  Far past any sane cell timeout; the
#: supervisor is expected to kill the worker long before this elapses.
HANG_SECONDS = 3600.0


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` value."""


class InjectedFault(RuntimeError):
    """The exception an ``exc`` fault raises inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One ``kind:rate:seed[:attempts]`` clause of a fault plan."""

    kind: str
    rate: float
    seed: int
    attempts: int = 1


def parse_fault_specs(raw: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value into specs (empty input → ``()``)."""
    specs = []
    for clause in raw.split(","):
        clause = clause.strip()
        if not clause:
            continue
        fields = clause.split(":")
        if len(fields) not in (3, 4):
            raise FaultSpecError(
                f"fault spec {clause!r} must be kind:rate:seed[:attempts] "
                f"(e.g. 'exc:0.5:7')")
        kind = fields[0].strip().lower()
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} "
                f"(choose from {', '.join(FAULT_KINDS)})")
        try:
            rate = float(fields[1])
            seed = int(fields[2])
            attempts = int(fields[3]) if len(fields) == 4 else 1
        except ValueError:
            raise FaultSpecError(
                f"fault spec {clause!r}: rate must be a float, seed and "
                f"attempts integers") from None
        if not 0.0 <= rate <= 1.0:
            raise FaultSpecError(
                f"fault spec {clause!r}: rate must be in [0, 1]")
        if attempts < 1:
            raise FaultSpecError(
                f"fault spec {clause!r}: attempts must be at least 1")
        specs.append(FaultSpec(kind=kind, rate=rate, seed=seed,
                               attempts=attempts))
    return tuple(specs)


class FaultPlan:
    """A set of fault specs plus the deterministic injection decisions."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)

    @staticmethod
    def _roll(spec: FaultSpec, key: str) -> bool:
        """The pure (seed, kind, key) → bool decision behind every fault."""
        digest = hashlib.sha256(
            f"{spec.seed}:{spec.kind}:{key}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return fraction < spec.rate

    def decide(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Should a ``kind`` fault hit cell ``key`` on this attempt?"""
        return any(spec.kind == kind and attempt < spec.attempts
                   and self._roll(spec, key)
                   for spec in self.specs)

    def apply_worker_faults(self, key: str, attempt: int,
                            kinds: Sequence[str] = WORKER_FAULT_KINDS
                            ) -> None:
        """Inject the worker-side faults planned for ``(key, attempt)``.

        Called inside the worker immediately before the cell runs.  The
        serial executor restricts ``kinds`` to ``("exc",)`` — a ``kill``
        would take down the caller's own process and a ``hang`` would
        block forever with no supervisor to time it out.
        """
        if "kill" in kinds and self.decide("kill", key, attempt):
            # Abrupt death: no exception, no atexit, no flushing — exactly
            # what SIGKILL or the OOM killer looks like from outside.
            os._exit(KILL_EXIT_CODE)
        if "hang" in kinds and self.decide("hang", key, attempt):
            time.sleep(HANG_SECONDS)
        if "exc" in kinds and self.decide("exc", key, attempt):
            raise InjectedFault(
                f"injected transient fault at cell {key} attempt {attempt}")

    def corrupt_store_entry(self, store, key: str) -> bool:
        """Tear the stored entry for ``key`` (models a crash mid-write).

        The second half of the entry's result payload is dropped and the
        entry rewritten through the backend's own ``load_entry`` /
        ``store_entry``, so every backend takes the fault.  Returns True
        when the entry was corrupted.  The store's integrity digest must
        detect the damage on the next read, evict the entry and recompute
        the cell — so a corrupted entry costs one re-simulation, never a
        wrong result.
        """
        if not self.decide("corrupt", key, 0):
            return False
        entry = store.load_entry(key)
        if not isinstance(entry, dict):
            return False
        fields = list(entry["result"].items())
        store.store_entry(key, {**entry,
                                "result": dict(fields[:len(fields) // 2])})
        log_event(get_logger("harness.faults"), "store_corrupted", key=key)
        return True


_active_plan: Optional[FaultPlan] = None
_active_signature: Optional[str] = None


def active_fault_plan() -> Optional[FaultPlan]:
    """The process-wide plan configured by ``REPRO_FAULTS``, or ``None``.

    Re-reads the environment on every call (workers inherit the variable
    across fork/spawn, and tests reconfigure it freely); the plan object
    is only rebuilt when the setting changes.
    """
    global _active_plan, _active_signature
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    if _active_plan is None or raw != _active_signature:
        _active_plan = FaultPlan(parse_fault_specs(raw))
        _active_signature = raw
    return _active_plan


def reset_fault_plan() -> None:
    """Forget the process-wide plan (test helper)."""
    global _active_plan, _active_signature
    _active_plan = None
    _active_signature = None

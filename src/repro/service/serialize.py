"""Canonical JSON serialisers shared by the CLI and the HTTP service.

One serialiser per payload, used by *both* consumers — the CLI's
``--json`` output modes (``version`` / ``suites`` / ``schemes`` /
``machines``) and the service's endpoints — so the two surfaces cannot
drift apart.

:func:`canonical_json` is the byte-level contract: sorted keys, compact
separators, UTF-8.  The acceptance invariant of the service rests on it —
a sweep submitted over HTTP returns exactly
``canonical_json(sweep_payload(api.sweep(...)))``, so clients can diff
server responses byte-for-byte against inline runs.

Everything here is deterministic: no timestamps, wall-clock durations or
host names ever enter an outcome payload (job *status* payloads carry
progress counters, but those live in :mod:`repro.service.jobs`, outside
the byte-compared result).
"""

from __future__ import annotations

import importlib.util
import json
from typing import Any, Dict, List

from repro import __version__
from repro.harness.executor import FailedCell
from repro.harness.store import STORE_BACKENDS, result_to_dict


def canonical_json(payload: Any) -> bytes:
    """The one true byte encoding of a payload (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def version_payload() -> Dict[str, Any]:
    """Package/version facts behind ``repro version`` and ``/v1/health``.

    ``numpy`` reports whether numpy is installed on the host (looked up,
    never imported); the simulator itself needs only the standard library.
    """
    from repro.harness.suites import suite_names
    from repro.schemes import scheme_names
    return {
        "package": "repro",
        "version": __version__,
        "default_engine": "packed",
        "numpy": importlib.util.find_spec("numpy") is not None,
        "store_backends": list(STORE_BACKENDS),
        "schemes": len(scheme_names()),
        "suites": len(suite_names()),
    }


def suites_payload() -> List[Dict[str, Any]]:
    """The named benchmark suites with their expanded members."""
    from repro.harness.suites import resolve_suites, suite_names
    return [{"name": name, "benchmarks": resolve_suites([name])}
            for name in suite_names()]


def schemes_payload() -> List[Dict[str, Any]]:
    """The registered protection schemes with their capability flags."""
    from repro.schemes import available_schemes
    return [{
        "name": spec.name,
        "display_name": spec.display_name,
        "builtin": spec.builtin,
        "description": spec.description,
        "capabilities": dict(spec.capabilities()),
    } for spec in available_schemes()]


def machines_payload() -> List[Dict[str, Any]]:
    """The heterogeneous machine presets, cores summarised and the full
    machine description attached (the ``--machine-file`` format)."""
    from repro.common.machine import machine_to_dict
    from repro.workloads.mixes import get_machine, machine_names
    payload = []
    for name in machine_names():
        config = get_machine(name)
        cores = [{
            "scheme": core.mode,
            "width": core.pipeline.width,
            "l1d_kib": core.l1d.size_bytes // 1024,
            "insecure_scoped_invalidate":
                core.protection.insecure_scoped_invalidate,
        } for core in config.core_configs()]
        payload.append({
            "name": name,
            "num_cores": config.num_cores,
            "cores": cores,
            "machine": machine_to_dict(config),
        })
    return payload


def failure_payload(failure: FailedCell) -> Dict[str, Any]:
    """One quarantined cell, deterministic fields only.

    ``seconds`` (wall-clock spent before quarantine) is deliberately
    excluded: outcome payloads must be byte-identical across runs and
    hosts.
    """
    return {
        "key": failure.key,
        "benchmark": failure.benchmark,
        "label": failure.label,
        "seed": failure.seed,
        "error": failure.error,
        "attempts": failure.attempts,
    }


def simulation_payload(outcome) -> Dict[str, Any]:
    """A :class:`repro.api.SimulationOutcome` as a plain dict."""
    from repro.common.machine import machine_to_dict
    return {
        "benchmark": outcome.benchmark,
        "label": outcome.label,
        "scheme": outcome.scheme,
        "seed": outcome.seed,
        "instructions_requested": outcome.instructions_requested,
        "machine": machine_to_dict(outcome.machine),
        "result": result_to_dict(outcome.result),
    }


def comparison_payload(outcome) -> Dict[str, Any]:
    """A :class:`repro.api.ComparisonOutcome` as a plain dict.

    Carries the full per-cell results (keyed ``benchmark|label|seed``)
    alongside the derived normalised table and geomeans, so a client can
    re-derive anything the report renders without another request.
    """
    result = outcome.result
    runs = {f"{benchmark}|{label}|{seed}": result_to_dict(run)
            for (benchmark, label, seed), run in result.runs.items()}
    return {
        "benchmarks": list(result.benchmarks),
        "labels": list(result.labels),
        "baseline_label": result.baseline_label,
        "seeds": list(result.seeds),
        "normalised": result.normalised(),
        "geomeans": result.geomeans(),
        "runs": runs,
        "failures": [failure_payload(failure)
                     for failure in result.failures],
    }


def sweep_payload(outcome) -> Dict[str, Any]:
    """A :class:`repro.api.SweepOutcome` as a plain dict."""
    return {
        "parameter": outcome.parameter,
        "values": list(outcome.values),
        "comparison": comparison_payload(outcome.comparison),
    }


__all__ = [
    "canonical_json",
    "comparison_payload",
    "failure_payload",
    "machines_payload",
    "schemes_payload",
    "simulation_payload",
    "suites_payload",
    "sweep_payload",
    "version_payload",
]

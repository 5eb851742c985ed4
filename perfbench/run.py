#!/usr/bin/env python3
"""Host-time benchmark of the MuonTrap reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spec-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload service-store --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` instead runs the workload's requests three times -- plain,
with layer spans and model counters, and under a per-package profile --
and reports the per-layer metrics and the instrumentation overhead.
Every run checks each simulated cell against ``perfbench/expected.json``;
a mismatch, an exception, a quarantined cell or a non-2xx response is a
failure and makes the exit status 1.  The last line of standard output is
the JSON result; the host, the per-layer shares and the failures go to
standard error and to ``.perfbench/results/``.

``--write-expected`` recomputes the oracle; do so only when the simulated
model is meant to change.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
EXPECTED = BENCH_DIR / "expected.json"

PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in layers.SPAN_LAYERS},
    "service.simulate_ms": "ms",
    "service.simulate_p90_ms": "ms",
    "service.compare_ms": "ms",
    **{f"{package}.{kind}": unit for package in layers.PACKAGES
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "caches.l1d_hit_ratio": "ratio",
    "core.dfilter_hit_ratio": "ratio",
    "coherence.snoops_per_kinst": "1/kinst",
    "tlb.walks_per_kinst": "1/kinst",
    "harness.executed": "count",
    "harness.store_hits": "count",
    "harness.retries": "count",
    "harness.worker_utilisation": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.profile_overhead": "ratio",
}


def child_env() -> dict:
    """The environment of the benchmark and its children: the checkout's
    sources first, and no ``REPRO_*`` setting inherited from the caller."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_PROGRESS"] = "0"
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_info() -> dict:
    from repro.service.serialize import version_payload
    version = version_payload()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version["numpy"],
            "default_engine": version["default_engine"],
            "commit": git_commit(),
            "machine": platform.machine()}


def write_expected(path: Path) -> None:
    """Simulate every cell of every workload, size and trace seed."""
    from repro import api
    from scenarios import TRACE_SEEDS, WORKLOADS, expected_key
    cells = {}
    for name, workload in WORKLOADS.items():
        for size in workload.sizes:
            by_instructions = {}
            for benchmark, scheme, instructions in workload(size).cells():
                entry = by_instructions.setdefault(instructions, ({}, {}))
                entry[0][benchmark] = None
                entry[1][scheme] = scheme
            for instructions, (benchmarks, schemes) in \
                    by_instructions.items():
                for seed in TRACE_SEEDS:
                    outcome = api.compare(
                        schemes, suite=list(benchmarks), baseline=None,
                        instructions=instructions, seed=seed,
                        jobs=len(os.sched_getaffinity(0)))
                    if outcome.result.failures:
                        raise RuntimeError(outcome.result.failures)
                    for (benchmark, scheme, _), run in \
                            outcome.result.runs.items():
                        cells[expected_key(name, size, benchmark, scheme,
                                           seed)] = [run.cycles,
                                                     run.instructions]
                    print(f"{name} {size} {instructions} seed {seed}: "
                          f"{len(outcome.result.runs)} cells",
                          file=sys.stderr)
    path.write_text(json.dumps({"cells": cells}, indent=1, sort_keys=True)
                    + "\n")
    print(f"wrote {len(cells)} expected cells to {path}", file=sys.stderr)


def print_layers(metrics: dict, report: dict) -> None:
    """Each layer's share of the traced time, for the workload at hand."""
    spans = {f"{layer}_s": metrics[f"{layer}_s"]
             for layer in layers.SPAN_LAYERS}
    total = sum(spans.values()) or 1.0
    print("span self time (share of all recorded span time):",
          file=sys.stderr)
    for name, value in spans.items():
        print(f"  {name:28s} {value:10.4f} s  {100 * value / total:5.1f}%",
              file=sys.stderr)
    cell = report.get("cell_seconds") or 1.0
    print(f"profiled package self time (share of {cell:.2f} s of "
          f"profiled cell time):", file=sys.stderr)
    for package in layers.PACKAGES:
        value = metrics[f"{package}.self_s"]
        print(f"  {package + '.self_s':28s} {value:10.4f} s  "
              f"{100 * value / cell:5.1f}%  "
              f"{metrics[f'{package}.calls']:>12d} calls", file=sys.stderr)
    print(f"overhead over the untraced pass: spans "
          f"{report['trace_overhead']:+.1%}, profile "
          f"{report['profile_overhead']:+.1%}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("spec-long", "campaign-short",
                                 "service-store"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: minimal inputs, for the smoke test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute the oracle file and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like Ctrl-C, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import scenarios
    if args.write_expected:
        write_expected(EXPECTED)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = scenarios.WORKLOADS[args.workload](args.size)
    if args.probe_setup:
        workload.prepare(args.seed)
        print("ready", flush=True)
        return 0

    host = host_info()
    print(f"host: {json.dumps(host, sort_keys=True)}", file=sys.stderr)
    ctx = scenarios.Context(
        root=ROOT, size=args.size, seed=args.seed, seconds=args.seconds,
        expected=json.loads(EXPECTED.read_text())["cells"],
        work_dir=WORK_DIR, env=env)
    report = {}
    if args.trace:
        values, report = workload.trace(ctx)
        units = PER_LAYER_UNITS
        print_layers(values, report)
    else:
        values = workload.measure(ctx)
        units = scenarios.END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    informational = {name: {"value": values[name], "unit": unit}
                     for name, unit in scenarios.INFORMATIONAL_UNITS.items()
                     if name in values}
    for name, metric in informational.items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']} "
              f"(informational)", file=sys.stderr)
    failed = len(ctx.failures)
    attempted = max(1, ctx.attempted)
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} "
          f"operations)", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.size}-seed{args.seed}-"
               f"trace{args.trace}.json").write_text(json.dumps(
                   {**result, "host": host, "report": report,
                    "informational": informational,
                    "failures": ctx.failures}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

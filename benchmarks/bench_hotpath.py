#!/usr/bin/env python
"""Hot-path engine throughput benchmark (the CI perf-smoke gate).

Runs a fixed workload (default: 200k instructions of ``mcf``) through every
protection scheme on both engines:

* **packed** — the production engine: cached trace generation plus the
  zero-allocation ``run_packed`` loop (same-line simple-op runs batched);
* **legacy** — the pre-overhaul shape of the engine: fresh trace generation
  for every cell plus the per-op ``execute_op`` loop.

and reports ops/sec per scheme plus the end-to-end speedup of the packed
engine over legacy.  A campaign-level benchmark then times a parallel
campaign twice — with the fork-inherited shared trace registry on and off —
to cover the harness path (pre-fork materialisation, worker attach) that
the per-cell loop above cannot see.  Results are written to
``BENCH_hotpath.json``.

``--check`` compares against a checked-in baseline
(``benchmarks/baseline_hotpath.json``) and exits non-zero when the packed
engine regresses.  The gating metric is its *speedup ratio over legacy*,
which is stable across machines; absolute ops/sec numbers vary
with the host CPU, so they are reported but compared only against the floor
implied by the same tolerance applied to the measured speedup.  The
campaign numbers are informational (two-job pool scheduling is too noisy
for a ratio gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check-telemetry
    PYTHONPATH=src python benchmarks/bench_hotpath.py --instructions 50000

``--check-telemetry`` additionally asserts that no tracer is active (the
whole run measures the telemetry-*disabled* path) and gates the
zero-cost-when-disabled guarantee of :mod:`repro.telemetry`: a seed-pinned
packed run per scheme executes under cProfile and its *deterministic call
count* must stay within 2% of the checked-in baseline.  Call counts are
bit-identical across runs and hosts, so the 2% gate cannot flake the way
a wall-clock gate would on shared CI machines, while any per-op work
accidentally added to the disabled path trips it at once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.params import SystemConfig  # noqa: E402
from repro.telemetry.tracer import active_tracer  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.sim.system import build_system  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    TraceGenerator,
    generate_workload,
)
from repro.workloads.profiles import get_profile  # noqa: E402

#: The five schemes of the acceptance matrix (Figures 3 and 4), by
#: registry name (see ``python -m repro schemes``).
SCHEMES = [
    "unprotected",
    "insecure-l0",
    "muontrap",
    "invisispec-spectre",
    "stt-spectre",
]

DEFAULT_BENCHMARK = "mcf"
DEFAULT_INSTRUCTIONS = 200_000
DEFAULT_SEED = 1234
#: Allowed throughput regression before --check fails.
REGRESSION_TOLERANCE = 0.20
#: Allowed disabled-telemetry overhead before --check-telemetry fails.
#: Tracing off must be (near) free: the packed hot loop takes one
#: module-level guard check per call and the memory system none at all.
TELEMETRY_TOLERANCE = 0.02
#: Workload of the telemetry gate.  Small: it runs under cProfile, whose
#: deterministic call counts (not noisy wall-clock) are the gated metric.
TELEMETRY_INSTRUCTIONS = 20_000

#: The campaign-level benchmark: a small matrix run through the parallel
#: harness (pool executor + shared trace registry), sized so the traces —
#: not the pool spin-up — dominate what trace sharing can save.
CAMPAIGN_BENCHMARKS = ["mcf", "hmmer", "lbm", "povray"]
CAMPAIGN_INSTRUCTIONS = 20_000
CAMPAIGN_JOBS = 2


def _run_packed(profile, mode: str, instructions: int,
                seed: int) -> tuple:
    """One production cell: cached generation + packed engine."""
    config = SystemConfig(mode=mode).with_cores(max(1, profile.num_threads))
    started = time.perf_counter()
    workload = generate_workload(profile, instructions, seed=seed)
    simulator = Simulator(build_system(config, seed=seed), use_packed=True)
    result = simulator.run(workload, warmup_fraction=0.35)
    return time.perf_counter() - started, result


def _run_legacy(profile, mode: str, instructions: int,
                seed: int) -> tuple:
    """One pre-overhaul-shaped cell: fresh generation + per-op engine."""
    config = SystemConfig(mode=mode).with_cores(max(1, profile.num_threads))
    started = time.perf_counter()
    workload = TraceGenerator(profile, seed=seed).generate(instructions)
    simulator = Simulator(build_system(config, seed=seed), use_packed=False)
    result = simulator.run(workload, warmup_fraction=0.35)
    return time.perf_counter() - started, result


def run_benchmark(benchmark: str, instructions: int, seed: int,
                  skip_legacy: bool = False) -> dict:
    profile = get_profile(benchmark)
    # Warm the trace tier once, untimed: every packed cell reuses this one
    # trace (plan included), so the first scheme is not charged the one-off
    # generation cost.  The legacy arm still regenerates fresh inside its
    # timed region — paying per-cell generation is part of the
    # pre-overhaul shape it models.
    generate_workload(profile, instructions, seed=seed)
    # Every instruction of every thread is simulated (warmup included), so
    # throughput is reported over the full executed stream.
    executed = instructions * max(1, profile.num_threads)
    schemes = {}
    total_packed = 0.0
    total_legacy = 0.0
    for mode in SCHEMES:
        packed_wall, packed_result = _run_packed(profile, mode, instructions,
                                                 seed)
        entry = {
            "wall_seconds": round(packed_wall, 4),
            "ops_per_sec": round(executed / packed_wall, 1),
            "cycles": packed_result.cycles,
        }
        total_packed += packed_wall
        if not skip_legacy:
            legacy_wall, legacy_result = _run_legacy(profile, mode,
                                                     instructions, seed)
            if (legacy_result.cycles, legacy_result.instructions) != (
                    packed_result.cycles, packed_result.instructions):
                raise AssertionError(
                    f"engine divergence under {mode}: "
                    f"packed {packed_result.cycles} cycles vs "
                    f"legacy {legacy_result.cycles}")
            entry["legacy_wall_seconds"] = round(legacy_wall, 4)
            entry["legacy_ops_per_sec"] = round(executed / legacy_wall, 1)
            entry["speedup"] = round(legacy_wall / packed_wall, 3)
            total_legacy += legacy_wall
        schemes[mode] = entry
        line = f"  {mode:20s} packed {entry['ops_per_sec']:>9.0f} ops/s"
        if not skip_legacy:
            line += (f"   legacy {entry['legacy_ops_per_sec']:>9.0f} ops/s"
                     f"  speedup {entry['speedup']:.2f}x")
        print(line)
    payload = {
        "benchmark": benchmark,
        "instructions": instructions,
        "seed": seed,
        "schemes": schemes,
        "total_packed_seconds": round(total_packed, 3),
    }
    if not skip_legacy:
        payload["total_legacy_seconds"] = round(total_legacy, 3)
        payload["end_to_end_speedup"] = round(total_legacy / total_packed, 3)
        print(f"  {'end-to-end':20s} packed {total_packed:.2f}s vs legacy "
              f"{total_legacy:.2f}s -> {payload['end_to_end_speedup']:.2f}x")
    return payload


def run_campaign_benchmark(seed: int) -> dict:
    """Time a parallel campaign with trace sharing on, then off.

    The per-cell loops above cannot see the harness path this PR touched:
    pre-fork trace materialisation and worker attach through the
    fork-inherited shared registry.  This runs the same small matrix (two
    series × four benchmarks) through the pool executor twice and reports
    both walls plus the registry statistics.  Informational only — pool
    scheduling at two jobs is too noisy for a ratio gate.
    """
    from repro.harness.campaign import Campaign
    from repro.workloads.cache import SHARED_TRACES_ENV, reset_trace_cache

    def one_run(shared: bool) -> tuple:
        # A cold trace tier each time, so both runs pay trace generation
        # the same way and differ only in *where* workers obtain traces.
        reset_trace_cache()
        saved = os.environ.get(SHARED_TRACES_ENV)
        os.environ[SHARED_TRACES_ENV] = "on" if shared else "off"
        try:
            campaign = Campaign(
                CAMPAIGN_BENCHMARKS,
                configs={"muontrap": SystemConfig(mode="muontrap")},
                baseline_config=SystemConfig(mode="unprotected"),
                instructions=CAMPAIGN_INSTRUCTIONS, seed=seed,
                jobs=CAMPAIGN_JOBS)
            started = time.perf_counter()
            result = campaign.run()
            return time.perf_counter() - started, result
        finally:
            if saved is None:
                del os.environ[SHARED_TRACES_ENV]
            else:
                os.environ[SHARED_TRACES_ENV] = saved

    shared_wall, shared_result = one_run(shared=True)
    unshared_wall, unshared_result = one_run(shared=False)
    if shared_result.geomeans() != unshared_result.geomeans():
        raise AssertionError("shared-trace campaign diverged from the "
                             "unshared reference")
    cells = shared_result.stats.executed
    payload = {
        "benchmarks": CAMPAIGN_BENCHMARKS,
        "instructions": CAMPAIGN_INSTRUCTIONS,
        "jobs": CAMPAIGN_JOBS,
        "cells": cells,
        "shared_traces": shared_result.stats.shared_traces,
        "wall_seconds": round(shared_wall, 4),
        "cells_per_sec": round(cells / shared_wall, 2),
        "unshared_wall_seconds": round(unshared_wall, 4),
    }
    print(f"  {'campaign':20s} {cells} cells, {CAMPAIGN_JOBS} jobs: "
          f"{shared_wall:.2f}s with {payload['shared_traces']} shared "
          f"trace(s) vs {unshared_wall:.2f}s unshared")
    return payload


def check_against_baseline(payload: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    measured = payload.get("end_to_end_speedup")
    expected = baseline.get("end_to_end_speedup")
    if measured is None:
        failures.append("--check requires the legacy comparison "
                        "(do not combine with --no-legacy)")
    elif expected is not None:
        floor = expected * (1.0 - REGRESSION_TOLERANCE)
        print(f"check: packed end-to-end speedup {measured:.2f}x "
              f"(baseline {expected:.2f}x, floor {floor:.2f}x)")
        if measured < floor:
            failures.append(
                f"packed end-to-end speedup regressed: {measured:.2f}x < "
                f"floor {floor:.2f}x (baseline {expected:.2f}x)")
    # Per-scheme ratios are noisier than the aggregate (short runs, shared
    # CI hosts), so scheme-level drops warn rather than fail; the gate is
    # the end-to-end speedup above.
    for mode, entry in baseline.get("schemes", {}).items():
        baseline_speedup = entry.get("speedup")
        current = payload["schemes"].get(mode, {}).get("speedup")
        if baseline_speedup is None or current is None:
            continue
        floor = baseline_speedup * (1.0 - REGRESSION_TOLERANCE)
        if current < floor:
            print(f"warning: {mode}: speedup {current:.2f}x below "
                  f"floor {floor:.2f}x (baseline {baseline_speedup:.2f}x)",
                  file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("check: OK (no regression beyond "
          f"{REGRESSION_TOLERANCE:.0%} tolerance)")
    return 0


def measure_disabled_call_counts(benchmark: str, seed: int) -> dict:
    """Interpreter work of one packed run per scheme, tracing disabled.

    Wall-clock is too noisy for a 2% gate (shared CI hosts swing more than
    that between *identical* runs), so the zero-cost-when-disabled check
    gates on cProfile's deterministic call counts instead: the simulation
    is seed-pinned, so the count is bit-identical across runs and hosts,
    and any accidental per-op or per-access work added to the disabled
    telemetry path shows up as a call-count increase immediately.
    """
    import cProfile

    profile = get_profile(benchmark)
    counts = {}
    for mode in SCHEMES:
        config = SystemConfig(mode=mode).with_cores(
            max(1, profile.num_threads))
        workload = generate_workload(profile, TELEMETRY_INSTRUCTIONS,
                                     seed=seed)
        simulator = Simulator(build_system(config, seed=seed),
                              use_packed=True)
        profiler = cProfile.Profile()
        profiler.enable()
        simulator.run(workload, warmup_fraction=0.35)
        profiler.disable()
        counts[mode] = sum(entry.callcount
                           for entry in profiler.getstats())
    return counts


def check_telemetry_overhead(payload: dict, baseline_path: Path) -> int:
    """The <2% zero-cost-when-disabled gate on the telemetry layer."""
    baseline = json.loads(baseline_path.read_text())
    expected = baseline.get("telemetry_call_counts")
    if not expected:
        print("FAIL: baseline has no telemetry_call_counts "
              "(regenerate benchmarks/baseline_hotpath.json)",
              file=sys.stderr)
        return 1
    measured = payload["telemetry_call_counts"]
    failures = []
    for mode, baseline_count in sorted(expected.items()):
        current = measured.get(mode)
        if current is None:
            continue
        ceiling = baseline_count * (1.0 + TELEMETRY_TOLERANCE)
        overhead = current / baseline_count - 1.0
        print(f"check-telemetry: {mode:20s} {current:>12,d} calls "
              f"(baseline {baseline_count:,d}, {overhead:+.2%})")
        if current > ceiling:
            failures.append(
                f"{mode}: disabled-telemetry run makes "
                f"{overhead:.2%} more interpreter calls than the "
                f"baseline (ceiling {TELEMETRY_TOLERANCE:.0%})")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check-telemetry: OK (<{TELEMETRY_TOLERANCE:.0%} overhead "
          "with tracing disabled)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--no-legacy", action="store_true",
                        help="skip the legacy-engine comparison runs")
    parser.add_argument("--no-campaign", action="store_true",
                        help="skip the campaign-level harness benchmark")
    # argparse expands help strings with %-formatting, so literal percent
    # signs must be doubled.
    parser.add_argument("--check", action="store_true",
                        help="fail when throughput regresses more than "
                             f"{REGRESSION_TOLERANCE * 100:.0f}%% against "
                             "the baseline")
    parser.add_argument("--check-telemetry", action="store_true",
                        help="assert tracing is disabled and fail when the "
                             "telemetry hook points cost more than "
                             f"{TELEMETRY_TOLERANCE * 100:.0f}%% vs the "
                             "baseline")
    parser.add_argument("--baseline",
                        default=str(Path(__file__).parent
                                    / "baseline_hotpath.json"))
    parser.add_argument("--output", default="BENCH_hotpath.json")
    args = parser.parse_args(argv)

    if args.check_telemetry and active_tracer() is not None:
        print("FAIL: a tracer is active; the telemetry gate measures the "
              "disabled path", file=sys.stderr)
        return 1

    print(f"hot-path benchmark: {args.benchmark}, "
          f"{args.instructions} instructions, seed {args.seed}")
    payload = run_benchmark(args.benchmark, args.instructions, args.seed,
                            skip_legacy=args.no_legacy)
    if not args.no_campaign:
        payload["campaign"] = run_campaign_benchmark(args.seed)
    payload["telemetry_disabled"] = active_tracer() is None
    if args.check_telemetry:
        payload["telemetry_call_counts"] = measure_disabled_call_counts(
            args.benchmark, args.seed)
    Path(args.output).write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    status = 0
    if args.check:
        status = check_against_baseline(payload, Path(args.baseline))
    if args.check_telemetry:
        status = max(status, check_telemetry_overhead(payload,
                                                      Path(args.baseline)))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Quickstart: the public API in a dozen lines.

Simulates one workload under MuonTrap and the unprotected baseline through
:mod:`repro.api` — the stable facade the CLI and the figure reproductions
both use — and prints the normalised execution time together with the
filter-cache statistics that explain it.

Run with:  python examples/quickstart.py [benchmark] [instructions]
"""

from __future__ import annotations

import sys

from repro import api
from repro.experiments.table1 import format_table1


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "povray"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 8000

    print("Simulated system (Table 1 of the paper):")
    print(format_table1())
    print()

    # One call per scheme: api.simulate resolves the benchmark name, builds
    # the machine, runs the workload and returns a typed outcome.  The same
    # seed gives both schemes the same instruction trace, so the comparison
    # isolates the memory system (the paper's methodology).
    baseline = api.simulate(benchmark, "unprotected", seed=42,
                            instructions=instructions, warmup_fraction=0.3,
                            collect_stats=True)
    muontrap = api.simulate(benchmark, "muontrap", seed=42,
                            instructions=instructions, warmup_fraction=0.3,
                            collect_stats=True)

    print(f"workload: {benchmark} ({instructions} instructions)")
    print(f"  unprotected: {baseline.cycles} cycles "
          f"(IPC {baseline.ipc:.2f}, "
          f"{baseline.wall_seconds * 1e6:.1f} simulated µs)")
    print(f"  MuonTrap:    {muontrap.cycles} cycles "
          f"(IPC {muontrap.ipc:.2f}, "
          f"{muontrap.wall_seconds * 1e6:.1f} simulated µs)")
    print(f"  normalised execution time: "
          f"{muontrap.normalised_to(baseline):.3f} (1.0 = baseline)")

    # Every outcome carries the full statistics tree of its run.
    stats = muontrap.stats
    prefix = "system.memory_system.core0"
    print("\nMuonTrap filter-cache behaviour (core 0):")
    print(f"  data filter:  {stats.get(f'{prefix}.data_filter.hits', 0)} "
          f"hits, {stats.get(f'{prefix}.data_filter.misses', 0)} misses, "
          f"{stats.get(f'{prefix}.data_filter.flushes', 0)} flushes")
    print(f"  inst filter:  {stats.get(f'{prefix}.inst_filter.hits', 0)} "
          f"hits, {stats.get(f'{prefix}.inst_filter.misses', 0)} misses")

    # The same machine, described as data: export, edit, re-run.
    machine = muontrap.machine.to_dict()
    print(f"\nmachine description: schema v{machine['schema_version']}, "
          f"{machine['num_cores']} core(s), mode {machine['mode']!r}")
    print("(SystemConfig.to_dict() round-trips losslessly; run saved "
          "files with: python -m repro run --machine-file <path>)")


if __name__ == "__main__":
    main()

"""Golden-stats snapshots: the full statistics tree, pinned.

The equivalence tests prove that batched and unbatched runs of the core's
one engine agree with *each other*; these snapshots pin what both produce,
so any semantic drift introduced by future hot-path or coherence work — a
stat that stops counting, a latency that shifts by one cycle, a changed
replacement decision — is caught immediately and attributed to the exact
counter that moved.

One snapshot per protection mode on a small fixed workload, one multi-core
co-run mix on the private-L2 topology, and one per heterogeneous machine
preset (big.LITTLE and asymmetric protection — these pin the per-core
construction paths, including the mixed-scheme composite memory system).
Refresh intentionally with::

    pytest tests/integration/test_golden_stats.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.common.params import SystemConfig, corun_system_config
from repro.schemes import available_schemes
from repro.workloads.mixes import get_machine
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import get_profile

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 1234
INSTRUCTIONS = 400
WARMUP_FRACTION = 0.25

#: (snapshot name, benchmark, system configuration).
CASES = [
    (spec.name, "mcf", SystemConfig(mode=spec.name))
    for spec in available_schemes() if spec.builtin
] + [
    ("corun-muontrap", "mix-pointer-stream",
     corun_system_config("muontrap", num_cores=2)),
    ("corun-unprotected", "mix-pointer-stream",
     corun_system_config("unprotected", num_cores=2)),
    ("hetero-biglittle-muontrap", "mix-pointer-stream",
     get_machine("biglittle-muontrap")),
    ("hetero-asym-protect", "mix-pointer-stream",
     get_machine("asym-protect")),
]


def _run_case(benchmark: str, config: SystemConfig) -> dict:
    profile = get_profile(benchmark)
    workload = generate_workload(profile, INSTRUCTIONS, seed=SEED)
    system_config = config.with_cores(max(config.num_cores,
                                          profile.num_threads, 1))
    simulator = Simulator(build_system(system_config, seed=SEED))
    result = simulator.run(workload, collect_stats=True,
                           warmup_fraction=WARMUP_FRACTION)
    return {
        "benchmark": result.benchmark,
        "mode": result.mode,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "warmup_cycles": result.warmup_cycles,
        "core_benchmarks": result.core_benchmarks,
        "stats": dict(sorted(result.stats.items())),
    }


def _diff(expected: dict, actual: dict) -> str:
    lines = []
    for key in ("benchmark", "mode", "cycles", "instructions",
                "warmup_cycles", "core_benchmarks"):
        if expected[key] != actual[key]:
            lines.append(f"  {key}: golden={expected[key]!r} "
                         f"actual={actual[key]!r}")
    golden_stats = expected["stats"]
    actual_stats = actual["stats"]
    for key in sorted(set(golden_stats) | set(actual_stats)):
        old = golden_stats.get(key, "<absent>")
        new = actual_stats.get(key, "<absent>")
        if old != new:
            lines.append(f"  stats[{key}]: golden={old} actual={new}")
    return "\n".join(lines)


class TestGoldenStats:
    # (the parametrize name avoids "benchmark", which pytest-benchmark
    # reserves as a fixture when that plugin is installed)
    @pytest.mark.parametrize("name,workload_name,config", CASES,
                             ids=[case[0] for case in CASES])
    def test_stats_match_golden(self, name, workload_name, config,
                                update_golden):
        path = GOLDEN_DIR / f"stats_{name}.json"
        actual = _run_case(workload_name, config)
        if update_golden:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(actual, indent=1, sort_keys=True)
                            + "\n")
            return
        assert path.is_file(), (
            f"golden snapshot {path} missing — generate it with "
            f"`pytest {__file__} --update-golden`")
        expected = json.loads(path.read_text())
        if expected != actual:
            pytest.fail(
                f"simulation drifted from golden snapshot {path.name}; "
                f"if the change is intentional, refresh with "
                f"`pytest tests/integration/test_golden_stats.py "
                f"--update-golden`.\n" + _diff(expected, actual))

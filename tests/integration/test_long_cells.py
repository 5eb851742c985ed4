"""Long cells stay bit-identical: the spec-long cells against their oracle.

The golden snapshots run 400-instruction cells, too short to churn the
TLBs, merge into outstanding MSHR entries or fill the prefetcher's tables.
The benchmark's ``spec-long`` workload runs povray and mcf under the five
figure schemes at 100,000 instructions, and ``perfbench/expected.json``
pins each cell's ``(cycles, instructions)``.  This slow-tier test runs the
seed-1234 cells through :func:`repro.api.simulate`, as the benchmark does,
and compares them with that oracle, which it only reads.
"""

import json
from pathlib import Path

import pytest

from repro import api

EXPECTED = (Path(__file__).resolve().parents[2] / "perfbench"
            / "expected.json")
BENCHMARKS = ("povray", "mcf")
#: The five schemes of the paper's Figures 3 and 4.
SCHEMES = ("muontrap", "invisispec-spectre", "invisispec-future",
           "stt-spectre", "stt-future")
INSTRUCTIONS = 100_000
SEED = 1234


@pytest.mark.slow
@pytest.mark.parametrize("workload", BENCHMARKS)
def test_spec_long_cells_match_the_benchmark_oracle(workload):
    expected = json.loads(EXPECTED.read_text())["cells"]
    for scheme in SCHEMES:
        outcome = api.simulate(workload, scheme=scheme, seed=SEED,
                               instructions=INSTRUCTIONS)
        key = f"spec-long|full|{workload}|{scheme}|{SEED}"
        assert [outcome.cycles, outcome.instructions] == expected[key], key

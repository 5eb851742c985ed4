"""Smoke test of the benchmark itself, at minimal input sizes.

Run from the root of the checkout::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in ``BENCHMARK.json`` is printed with
its unit, that a tampered oracle entry is counted as a failure, and that
``service-store`` leaves no server process or temporary store behind,
whether it finishes, fails or is interrupted.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
WORKLOADS = ("spec-long", "campaign-short", "service-store")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, *extra: str, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--size", "smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=170)


def copy_benchmark(tmp_path: Path) -> None:
    """The benchmark's files, without build or run leftovers."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))


def result_of(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def servers_started(stderr: str):
    """(pid, temporary directory) of every server a run reported."""
    return [(int(line.split()[2]), Path(line.split()[4]))
            for line in stderr.splitlines() if line.startswith("server pid")]


def assert_cleaned_up(stderr: str) -> None:
    servers = servers_started(stderr)
    assert servers, "service-store reported no server"
    for pid, tmp in servers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        assert not tmp.exists(), f"{tmp} left behind"


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    completed = bench(workload, "--trace", trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if workload == "service-store":
        assert_cleaned_up(completed.stderr)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tampered_expected_entry_is_a_failure(workload, tmp_path):
    oracle = json.loads((BENCH_DIR / "expected.json").read_text())
    prefix = f"{workload}|smoke|"
    tampered = sorted(key for key in oracle["cells"]
                      if key.startswith(prefix))[0]
    benchmark_scheme = tampered.rsplit("|", 1)[0]
    for key in oracle["cells"]:  # the same cell under every trace seed
        if key.rsplit("|", 1)[0] == benchmark_scheme:
            oracle["cells"][key][0] += 1
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "perfbench" / "expected.json").write_text(json.dumps(oracle))
    completed = bench(workload, "--trace", "0", root=tmp_path)
    assert completed.returncode == 1
    result = result_of(completed)
    assert not result["correct"] and result["failed"] >= 1
    assert "expected" in completed.stderr
    if workload == "service-store":
        assert_cleaned_up(completed.stderr)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_an_interrupted_service_run_stops_its_server(signum):
    child = subprocess.Popen(
        [*RUN, "--workload", "service-store", "--seed", "5",
         "--seconds", "60", "--size", "smoke", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in child.stderr:
            lines.append(line)
            if line.startswith("phase B"):
                child.send_signal(signum)
                break
        _, rest = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert child.returncode != 0
    assert_cleaned_up("".join(lines) + rest)


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    completed = subprocess.run(
        [*SPEC["command"], "--workload", "spec-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout

"""Figures keep the campaign's quarantine record.

A cell that exhausted its retries renders as ``FAILED`` in a figure's
table, as it does in ``python -m repro run``'s, and not as ``0.000`` or
a ``KeyError``.  Every cell here raises an injected fault and is given no
retry, so each is quarantined without simulating anything.
"""

import pytest

from repro.experiments.figures import figure3, figure7
from repro.harness.executor import CELL_TIMEOUT_ENV, MAX_RETRIES_ENV
from repro.harness.faults import FAULTS_ENV, reset_fault_plan
from repro.harness.report import FAILED_CELL, NO_GEOMEAN_CELL

BENCHMARKS = ["hmmer", "povray"]
OPTIONS = {"instructions": 600, "jobs": 1, "max_retries": 0}


@pytest.fixture(autouse=True)
def _every_cell_fails(monkeypatch):
    for name in (MAX_RETRIES_ENV, CELL_TIMEOUT_ENV):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(FAULTS_ENV, "exc:1.0:7")
    reset_fault_plan()
    yield
    reset_fault_plan()


def assert_every_cell_failed(report):
    header, *body, footer = report.rows()
    assert [row[0] for row in body] == BENCHMARKS
    for row in body:
        assert row[1:] == [FAILED_CELL] * len(report.labels)
    assert footer[1:] == [NO_GEOMEAN_CELL] * len(report.labels)


def test_figure3_renders_quarantined_cells_as_failed():
    assert_every_cell_failed(figure3(BENCHMARKS, **OPTIONS))


def test_figure7_renders_a_quarantined_benchmark_as_failed():
    report = figure7(BENCHMARKS, **OPTIONS)
    assert report.series == {"write fcache-invalidate rate": {}}
    assert_every_cell_failed(report)

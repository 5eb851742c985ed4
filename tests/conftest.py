"""Shared fixtures and test-tiering hooks for the test suite.

Tiering: tests marked ``slow`` are excluded from the default run (tier-1,
see ``pytest.ini``); everything under ``tests/integration`` is additionally
auto-marked ``integration`` so either tier can be selected with ``-m``.

``--update-golden`` regenerates the checked-in golden snapshots used by
``tests/integration/test_golden_stats.py`` instead of comparing against
them.
"""

from pathlib import Path

import pytest

from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup

#: The seed every seeded fixture (and the golden snapshots) pins.
FIXTURE_SEED = 1234


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden snapshot files instead of comparing to them")


def pytest_collection_modifyitems(config, items):
    integration_root = Path(__file__).parent / "integration"
    for item in items:
        if integration_root in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.integration)


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def config() -> SystemConfig:
    """The Table 1 system in MuonTrap mode, single core."""
    return SystemConfig()


@pytest.fixture
def unprotected_config() -> SystemConfig:
    return SystemConfig(mode="unprotected")


@pytest.fixture
def seeded_config():
    """A (config, seed) pair for tests that build whole systems.

    Sharing one pinned seed keeps trace-cache reuse high (the workload for
    a given benchmark is generated once per process) and makes failures
    reproducible by construction.
    """
    return SystemConfig(), FIXTURE_SEED


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(42)


@pytest.fixture
def stats() -> StatGroup:
    return StatGroup("test")

"""Tests for campaign instrumentation: timing, progress, phases, logging."""

import io
import logging

import pytest

from repro.common.params import SystemConfig
from repro.harness.campaign import (
    Campaign,
    ExecutionStats,
    _progress_enabled,
    _ProgressLine,
)
from repro.harness.report import Report
from repro.sim.runner import unprotected_config
from repro.telemetry import PhaseTimers, get_logger, log_event, phase
from repro.telemetry.log import configure

INSTRUCTIONS = 600
CONFIGS = {"MuonTrap": SystemConfig(mode="muontrap")}


def make_campaign(**kwargs):
    return Campaign(["hmmer"], configs=CONFIGS,
                    baseline_config=unprotected_config(),
                    instructions=INSTRUCTIONS, **kwargs)


class TestExecutionStats:
    def test_timing_fields_default_to_idle(self):
        stats = ExecutionStats()
        assert stats.executed_seconds == 0.0
        assert stats.wall_seconds == 0.0
        assert stats.workers == 1
        assert stats.worker_utilisation == 0.0

    def test_worker_utilisation_is_clamped_fraction(self):
        stats = ExecutionStats(executed=4, executed_seconds=6.0,
                               wall_seconds=4.0, workers=2)
        assert stats.worker_utilisation == pytest.approx(0.75)
        saturated = ExecutionStats(executed=1, executed_seconds=9.0,
                                   wall_seconds=1.0, workers=1)
        assert saturated.worker_utilisation == 1.0

    def test_summary_includes_timing_only_when_work_ran(self):
        cached = ExecutionStats(store_hits=3)
        assert "cached" in cached.summary()
        assert "utilisation" not in cached.summary()
        worked = ExecutionStats(executed=2, executed_seconds=1.0,
                                wall_seconds=2.0, workers=2)
        assert "2 worker(s)" in worked.summary()
        assert "25% utilisation" in worked.summary()

    def test_campaign_run_populates_timing(self):
        result = make_campaign().run()
        stats = result.stats
        assert stats.executed == 2
        assert stats.executed_seconds > 0
        assert stats.wall_seconds > 0
        assert 0.0 < stats.worker_utilisation <= 1.0


class TestProgress:
    def test_callback_sees_every_cell_and_completion(self):
        seen = []
        result = make_campaign().run(progress=lambda done, total:
                                     seen.append((done, total)))
        assert result.stats.total == 2
        assert seen[0] == (0, 2)
        assert seen[-1] == (2, 2)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones)

    def test_progress_env_forces_on_and_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert _progress_enabled() is True
        monkeypatch.setenv("REPRO_PROGRESS", "off")
        assert _progress_enabled() is False

    def test_progress_line_renders_and_terminates(self):
        stream = io.StringIO()
        line = _ProgressLine(stream=stream)
        line(0, 4)
        line(2, 4)
        line(4, 4)
        text = stream.getvalue()
        assert "cells 2/4 (50%)" in text
        assert text.endswith("\n")          # newline only on completion
        assert text.count("\n") == 1


class TestReportStats:
    def test_report_can_carry_the_execution_summary(self):
        result = make_campaign().run()
        bare = Report.from_campaign(result)
        assert bare.stats is None
        assert "cells:" not in bare.to_text()
        annotated = Report.from_campaign(result, include_stats=True)
        assert annotated.stats is result.stats
        assert "cells: 2 executed" in annotated.to_text()
        assert "_cells:" in annotated.to_markdown()


class TestPhaseTimers:
    def test_phase_accumulates_and_reports(self):
        timers = PhaseTimers()
        with timers.phase("simulate"):
            pass
        with timers.phase("simulate"):
            pass
        timers.add("pack", 1.5)
        assert timers.counts() == {"simulate": 2, "pack": 1}
        assert timers.totals()["pack"] == pytest.approx(1.5)
        report = timers.report()
        assert report.splitlines()[0].startswith("phase")
        assert "pack" in report and "simulate" in report
        timers.reset()
        assert timers.report() == "no phases recorded"

    def test_module_level_phase_targets_global_accumulator(self):
        from repro.telemetry.phases import PHASES
        before = PHASES.counts().get("test-phase", 0)
        with phase("test-phase"):
            pass
        assert PHASES.counts()["test-phase"] == before + 1

    def test_campaign_run_records_cell_phases(self):
        from repro.telemetry.phases import PHASES
        before = PHASES.counts().get("simulate", 0)
        make_campaign().run()
        assert PHASES.counts().get("simulate", 0) >= before + 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_executed_cell_records_each_phase_once(self, jobs):
        # Pooled cells run in worker processes; their timings travel back
        # with the results, so serial and pooled campaigns count alike.
        from repro.telemetry.phases import PHASES
        before = PHASES.counts()
        result = make_campaign(jobs=jobs).run()
        after = PHASES.counts()
        assert result.stats.executed == 2
        assert result.stats.workers == jobs
        for name in ("trace-gen", "pack", "simulate"):
            assert after.get(name, 0) - before.get(name, 0) == 2, name


class TestLogging:
    @pytest.fixture(autouse=True)
    def propagate_to_caplog(self, monkeypatch):
        # configure() turns propagation off (the hierarchy has its own
        # stderr handler); caplog listens on the root logger, so let the
        # records through for the duration of these tests.
        configure()
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

    def test_loggers_live_under_the_repro_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("harness.campaign").name == "repro.harness.campaign"
        assert get_logger("repro.api").name == "repro.api"

    def test_repro_log_env_sets_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "DEBUG")
        configure(force=True)
        try:
            assert logging.getLogger("repro").level == logging.DEBUG
            monkeypatch.delenv("REPRO_LOG")
            configure(force=True)
            assert logging.getLogger("repro").level == logging.WARNING
        finally:
            monkeypatch.delenv("REPRO_LOG", raising=False)
            configure(force=True)

    def test_log_event_renders_structured_line(self, caplog):
        logger = get_logger("harness.test")
        with caplog.at_level(logging.INFO, logger="repro.harness.test"):
            log_event(logger, "cell_done", benchmark="mcf", seconds=0.25)
        assert caplog.messages == ["cell_done benchmark=mcf seconds=0.25"]

    def test_log_event_is_silent_below_info(self, caplog):
        logger = get_logger("harness.test")
        with caplog.at_level(logging.WARNING, logger="repro.harness.test"):
            log_event(logger, "cell_done", benchmark="mcf")
        assert caplog.messages == []

    def test_campaign_emits_structured_events(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.harness.campaign"):
            make_campaign().run()
        events = [message.split()[0] for message in caplog.messages]
        assert "execute_start" in events
        assert "execute_done" in events
        assert events.count("cell_done") == 2

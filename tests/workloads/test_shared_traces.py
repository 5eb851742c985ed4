"""Tests for the fork-inherited shared trace registry.

The registry is the campaign harness's pre-fork trace tier: the parent
materialises every distinct workload (packed columns and execution plans
included) before the worker pool forks, workers attach by key, and the
parent empties the registry once the pool is gone.  These tests pin the
registry primitives, the ``generate_workload`` lookup order, the
attach-not-regenerate guarantee (a poisoned generator proves workers never
generate), and the campaign-level lifecycle.
"""

import pytest

from repro.common.params import SystemConfig
from repro.harness.campaign import Campaign
from repro.sim.runner import unprotected_config
from repro.workloads import generator as generator_module
from repro.workloads.cache import (
    SHARED_TRACES_ENV,
    TRACE_CACHE_ENV,
    clear_shared_traces,
    materialize_shared_traces,
    reset_trace_cache,
    shared_trace_count,
    shared_trace_lookup,
    shared_traces_enabled,
    trace_key,
)
from repro.workloads.generator import TraceGenerator, generate_workload
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 600


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    monkeypatch.delenv(SHARED_TRACES_ENV, raising=False)
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    reset_trace_cache()
    clear_shared_traces()
    yield
    reset_trace_cache()
    clear_shared_traces()


class TestRegistryPrimitives:
    def test_enabled_by_default_and_disableable(self, monkeypatch):
        assert shared_traces_enabled()
        for value in ("off", "none", "0", "disabled", "false", "OFF"):
            monkeypatch.setenv(SHARED_TRACES_ENV, value)
            assert not shared_traces_enabled()
        monkeypatch.setenv(SHARED_TRACES_ENV, "1")
        assert shared_traces_enabled()

    def test_materialise_registers_each_distinct_workload_once(self):
        mcf = get_profile("mcf")
        lbm = get_profile("lbm")
        requests = [(mcf, INSTRUCTIONS, 7), (lbm, INSTRUCTIONS, 7),
                    (mcf, INSTRUCTIONS, 7)]          # duplicate: one entry
        assert materialize_shared_traces(requests) == 2
        assert shared_trace_count() == 2
        # Idempotent: a second pass registers nothing new.
        assert materialize_shared_traces(requests) == 0

    def test_materialised_workloads_carry_packed_and_plan(self):
        mcf = get_profile("mcf")
        materialize_shared_traces([(mcf, INSTRUCTIONS, 7)])
        workload = shared_trace_lookup(mcf, INSTRUCTIONS, 7, 0)
        assert workload is not None
        for trace in workload:
            assert trace.packed()._plans    # plan pre-built for workers

    def test_mixes_expand_to_their_constituents(self):
        mix = get_mix("mix-pointer-stream")
        registered = materialize_shared_traces([(mix, INSTRUCTIONS, 7)])
        assert registered == len(mix.members)
        for process_id in range(len(mix.members)):
            member = mix.member_profile(process_id)
            assert shared_trace_lookup(member, INSTRUCTIONS, 7, 0) \
                is not None

    def test_clear_empties_the_registry(self):
        materialize_shared_traces([(get_profile("mcf"), INSTRUCTIONS, 7)])
        assert clear_shared_traces() == 1
        assert shared_trace_count() == 0
        assert shared_trace_lookup(get_profile("mcf"), INSTRUCTIONS, 7,
                                   0) is None


class TestGenerateWorkloadAttachesFirst:
    def test_lookup_precedes_every_other_tier(self, monkeypatch):
        mcf = get_profile("mcf")
        materialize_shared_traces([(mcf, INSTRUCTIONS, 7)])
        shared = shared_trace_lookup(mcf, INSTRUCTIONS, 7, 0)

        def poisoned(self, *args, **kwargs):
            raise AssertionError("regenerated a shared trace")
        monkeypatch.setattr(TraceGenerator, "generate", poisoned)
        # Even with the LRU/disk tiers disabled outright, the shared
        # registry satisfies the request — by reference, not by copy.
        monkeypatch.setenv(TRACE_CACHE_ENV, "off")
        assert generate_workload(mcf, INSTRUCTIONS, seed=7) is shared

    def test_non_registered_requests_fall_through(self):
        mcf = get_profile("mcf")
        materialize_shared_traces([(mcf, INSTRUCTIONS, 7)])
        other = generate_workload(mcf, INSTRUCTIONS, seed=8)
        assert other is not shared_trace_lookup(mcf, INSTRUCTIONS, 7, 0)
        key = trace_key(mcf, INSTRUCTIONS, 8, 0)
        assert key  # a different seed takes the ordinary cache path


def _campaign(jobs, **kwargs):
    return Campaign(
        ["hmmer", "povray"],
        configs={"MuonTrap": SystemConfig(mode="muontrap")},
        baseline_config=unprotected_config(),
        instructions=INSTRUCTIONS, jobs=jobs, **kwargs)


def _poison_after_materialise(monkeypatch):
    """Arrange for the generator to explode *after* pre-fork materialise.

    Forked workers inherit the poisoned generator together with the
    registry, so the campaign only completes if every worker attached to
    the shared traces instead of regenerating its own.
    """
    import repro.harness.campaign as campaign_module

    def materialise_then_poison(requests):
        registered = materialize_shared_traces(requests)

        def poisoned(self, *args, **kwargs):
            raise AssertionError("worker regenerated a shared trace")
        monkeypatch.setattr(TraceGenerator, "generate", poisoned)
        return registered

    monkeypatch.setattr(campaign_module, "materialize_shared_traces",
                        materialise_then_poison)


class TestCampaignLifecycle:
    def test_parallel_campaign_attaches_not_regenerates(self, monkeypatch):
        reference = _campaign(jobs=1).run()
        monkeypatch.setenv(TRACE_CACHE_ENV, "off")
        _poison_after_materialise(monkeypatch)
        shared = _campaign(jobs=2).run()
        assert shared.stats.shared_traces == 2
        assert not shared.failures
        assert shared.geomeans() == reference.geomeans()
        assert {key: result.cycles for key, result in shared.runs.items()} \
            == {key: result.cycles for key, result in reference.runs.items()}
        # The pool is gone; the parent dropped its references.
        assert shared_trace_count() == 0

    def test_serial_campaigns_do_not_materialise(self):
        result = _campaign(jobs=1).run()
        assert result.stats.shared_traces == 0
        assert shared_trace_count() == 0

    def test_env_var_disables_sharing(self, monkeypatch):
        monkeypatch.setenv(SHARED_TRACES_ENV, "off")
        result = _campaign(jobs=2).run()
        assert result.stats.shared_traces == 0
        assert not result.failures
        assert shared_trace_count() == 0

    def test_summary_line_reports_shared_traces(self, monkeypatch):
        result = _campaign(jobs=2).run()
        assert result.stats.shared_traces == 2
        assert "2 trace(s) shared with workers" in result.stats.summary()

"""Tests for the canonical serialisers shared by the CLI and the service."""

import json

from repro import api
from repro.harness.executor import FailedCell
from repro.service.serialize import (
    canonical_json,
    comparison_payload,
    failure_payload,
    machines_payload,
    schemes_payload,
    simulation_payload,
    suites_payload,
    sweep_payload,
    version_payload,
)

INSTRUCTIONS = 600


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) \
            == canonical_json({"a": 2, "b": 1})

    def test_compact_sorted_utf8(self):
        assert canonical_json({"b": [1, 2], "a": "x"}) \
            == b'{"a":"x","b":[1,2]}'

    def test_round_trips_through_json(self):
        payload = {"nested": {"values": [1, 2.5, None, True]}}
        assert json.loads(canonical_json(payload)) == payload


class TestListingPayloads:
    def test_version_payload_names_the_capabilities(self):
        payload = version_payload()
        assert payload["package"] == "repro"
        assert payload["default_engine"] == "packed"
        assert isinstance(payload["numpy"], bool)
        assert payload["store_backends"] == ["json", "sqlite"]
        assert payload["schemes"] >= 6
        assert payload["suites"] >= 5

    def test_suites_payload_expands_members(self):
        payload = suites_payload()
        by_name = {entry["name"]: entry["benchmarks"] for entry in payload}
        assert "mcf" in by_name["spec_int"]

    def test_schemes_payload_carries_capabilities(self):
        payload = schemes_payload()
        muontrap = next(entry for entry in payload
                        if entry["name"] == "muontrap")
        assert muontrap["builtin"]
        assert muontrap["capabilities"]["supports_filter_caches"]

    def test_machines_payload_attaches_full_description(self):
        payload = machines_payload()
        assert payload
        for entry in payload:
            assert len(entry["cores"]) == entry["num_cores"]
            # The attached machine dict is the --machine-file schema and
            # must resolve back through the public facade.
            config = api.resolve_machine(entry["machine"])
            assert config.num_cores == entry["num_cores"]

    def test_listing_payloads_are_json_serialisable(self):
        for payload in (version_payload(), suites_payload(),
                        schemes_payload(), machines_payload()):
            canonical_json(payload)


class TestOutcomePayloads:
    def test_failure_payload_excludes_wall_clock(self):
        failure = FailedCell(key="k", benchmark="mcf", label="MuonTrap",
                             seed=42, error="boom", attempts=3,
                             seconds=1.23)
        payload = failure_payload(failure)
        assert "seconds" not in payload
        assert payload["error"] == "boom"

    def test_simulation_payload_is_deterministic(self):
        first = api.simulate("mcf", scheme="muontrap",
                             instructions=INSTRUCTIONS)
        second = api.simulate("mcf", scheme="muontrap",
                              instructions=INSTRUCTIONS)
        assert canonical_json(simulation_payload(first)) \
            == canonical_json(simulation_payload(second))

    def test_comparison_payload_keys_runs_per_cell(self):
        outcome = api.compare(["muontrap"], suite="mcf",
                              instructions=INSTRUCTIONS)
        payload = comparison_payload(outcome)
        from repro.harness.campaign import DEFAULT_SEED
        assert f"mcf|MuonTrap|{DEFAULT_SEED}" in payload["runs"]
        assert payload["baseline_label"] in payload["normalised"] \
            or payload["normalised"]
        canonical_json(payload)  # fully serialisable

    def test_sweep_payload_is_deterministic(self):
        outcomes = [api.sweep("core.width", [2, 4], suite="mcf",
                              instructions=INSTRUCTIONS)
                    for _ in range(2)]
        first, second = (canonical_json(sweep_payload(outcome))
                         for outcome in outcomes)
        assert first == second

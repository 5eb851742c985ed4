"""End-to-end tests for the simulation service over real HTTP.

Each test spins an in-process :class:`ReproServer` on port 0 and talks
to it through :class:`ServiceClient` — the same stack ``python -m repro
serve`` runs, minus the process boundary.  The headline assertions are
the subsystem's acceptance criteria: a sweep over HTTP returns bytes
identical to serialising the same inline :func:`repro.api.sweep`, and
two clients requesting the same matrix share one job and compute each
cell exactly once against the shared store.
"""

import socket
import threading

import pytest

from repro import api
from repro.common.params import SystemConfig
from repro.harness.store import open_store
from repro.harness.suites import suite_names
from repro.service import (
    ApiKeyAuth,
    RateLimiter,
    ReproServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.serialize import (
    canonical_json,
    simulation_payload,
    sweep_payload,
)
from tests.api.test_machine_serialization import legacy_machine_dict
from tests.service.test_ratelimit import FakeClock

INSTRUCTIONS = 600


@pytest.fixture
def server(tmp_path):
    store = open_store(tmp_path / "store", backend="sqlite")
    instance = ReproServer(ServiceConfig(port=0, store=store))
    instance.start()
    yield instance
    instance.shutdown(drain=True, timeout=60)


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestReadEndpoints:
    def test_health_reports_the_package(self, client):
        payload = client.health()
        assert payload["package"] == "repro"
        assert payload["store_backends"] == ["json", "sqlite"]

    def test_listings_mirror_the_cli_serialisers(self, client):
        from repro.service.serialize import (
            machines_payload,
            schemes_payload,
            suites_payload,
        )
        assert client.suites() == suites_payload()
        assert client.schemes() == schemes_payload()
        assert client.machines() == machines_payload()

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._get("/v1/nope")
        assert excinfo.value.status == 404


class TestValidation:
    def test_unknown_parameter_is_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", benchamrk="typo")
        assert excinfo.value.status == 400
        assert "benchamrk" in excinfo.value.message

    def test_missing_required_parameter_is_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._post("/v1/sweep", {"values": [1, 2]})
        assert excinfo.value.status == 400
        assert "parameter" in excinfo.value.message

    def test_unknown_workload_is_a_400_not_a_500(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("no-such-benchmark",
                            instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        # A scheme must be a registry name string.
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", scheme=7, instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        assert "name string" in excinfo.value.message

    @pytest.mark.parametrize("machine", [
        {"mode": 7},
        {"num_cores": 1, "cores": [{"mode": None}]},
    ])
    def test_machine_with_a_non_string_mode_is_a_400(self, client, machine):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", machine=machine,
                            instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        assert "name string" in excinfo.value.message

    @pytest.mark.parametrize("field, name", [
        ("replacement", "fifo"),
        ("prefetcher", "stream"),
    ])
    def test_machine_with_an_unknown_cache_policy_is_a_400(
            self, client, field, name):
        machine = SystemConfig().to_dict()
        machine["l2"][field] = name
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", machine=machine,
                            instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        assert "SystemConfig.l2" in excinfo.value.message
        assert f"'{name}'" in excinfo.value.message

    @pytest.mark.parametrize("field, value", [
        ("page_size", 1000),
        ("entries", 0),
    ])
    def test_machine_with_an_unusable_tlb_is_a_400(self, client, field,
                                                   value):
        machine = SystemConfig().to_dict()
        machine["tlb"][field] = value
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", machine=machine,
                            instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        assert f"SystemConfig.tlb: {field} " in excinfo.value.message

    @pytest.mark.parametrize("field", ["width", "rob_entries"])
    def test_machine_with_an_empty_pipeline_is_a_400(self, client, field):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", machine={"core": {field: 0}},
                            instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        assert (f"SystemConfig.core: {field} must be positive"
                in excinfo.value.message)

    @pytest.mark.parametrize("param, value", [
        ("instructions", "abc"),
        ("instructions", 1.5),
        ("instructions", -5),
        ("instructions", 0),
        ("instructions", True),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", None),
    ])
    def test_bad_instruction_count_or_seed_is_a_400(self, client, param,
                                                    value):
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", **{"instructions": INSTRUCTIONS,
                                      param: value})
        assert excinfo.value.status == 400
        assert param in excinfo.value.message

    def test_filter_entries_matter_only_where_a_filter_tlb_is_built(
            self, client):
        """A MuonTrap machine without a filter-TLB entry is a 400 before
        any cell runs; an unprotected machine never builds a filter TLB,
        so the same field leaves it running as before."""
        machine = SystemConfig(mode="muontrap").to_dict()
        machine["tlb"]["filter_entries"] = 0
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("mcf", machine=machine,
                            instructions=INSTRUCTIONS)
        assert excinfo.value.status == 400
        assert "tlb.filter_entries=0" in excinfo.value.message
        machine["mode"] = "unprotected"
        payload = client.simulate("mcf", machine=machine,
                                  instructions=INSTRUCTIONS)
        plain = api.simulate("mcf", scheme="unprotected",
                             instructions=INSTRUCTIONS)
        assert payload["result"]["cycles"] == plain.cycles

    @pytest.mark.parametrize("path, params, message", [
        ("/v1/compare", {"instructions": -5},
         "instructions must be an integer"),
        ("/v1/compare", {"seed": "x"}, "seed must be an integer"),
        ("/v1/compare", {"replicates": 0}, "replicates must be an integer"),
        ("/v1/compare", {"suite": "no-such-suite"},
         "unknown suite or benchmark: 'no-such-suite'"),
        ("/v1/sweep", {"replicates": 0}, "replicates must be an integer"),
        ("/v1/sweep", {"parameter": "core.nope"},
         "PipelineConfig has no field 'nope'"),
    ], ids=["compare-instructions", "compare-seed", "compare-replicates",
            "compare-suite", "sweep-replicates", "sweep-path"])
    def test_compare_or_sweep_that_can_only_fail_is_a_400_at_submission(
            self, client, path, params, message):
        """The campaign is built when the request arrives, so a request
        that could only fail gets its message at once, and no job."""
        body = {"schemes": ["muontrap"]} if path == "/v1/compare" else {
            "parameter": "core.width", "values": [2, 4]}
        body.update(suite="mcf", instructions=INSTRUCTIONS)
        body.update(params)
        with pytest.raises(ServiceError) as excinfo:
            client._post(path, body)
        assert excinfo.value.status == 400
        assert message in excinfo.value.message
        assert client.jobs() == []

    @pytest.mark.parametrize("path, body, message", [
        ("/v1/compare", {"schemes": ["muontrap"], "suite": "no-such-suite"},
         "unknown suite or benchmark: 'no-such-suite' (known suites: {})"),
        ("/v1/sweep", {"parameter": "core.width", "values": [2, 4],
                       "suite": "no-such-suite"},
         "unknown suite or benchmark: 'no-such-suite' (known suites: {})"),
        ("/v1/simulate", {"workload": "no-such-benchmark"},
         "unknown benchmark: 'no-such-benchmark'"),
    ], ids=["compare", "sweep", "simulate"])
    def test_unknown_name_is_a_400_with_the_bare_message(
            self, client, path, body, message):
        """The ``str`` of a ``KeyError`` is its message's repr; the
        service answers with the message itself, as the CLI prints it."""
        with pytest.raises(ServiceError) as excinfo:
            client._post(path, {**body, "instructions": INSTRUCTIONS})
        assert excinfo.value.status == 400
        assert excinfo.value.message == message.format(
            ", ".join(suite_names()))

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("sweep-0000000000000000")
        assert excinfo.value.status == 404

    def test_result_of_unfinished_job_is_409(self, server):
        # Submit against a queue whose worker is busy: a second job waits
        # queued, and asking for its result early must 409, not 500.
        block = threading.Event()
        original = server._run_job

        def slow(job):
            block.wait(timeout=30)
            return original(job)

        server.queue._runner = slow
        client = ServiceClient(server.url)
        job = client.submit_compare(["muontrap"], suite="mcf",
                                    instructions=INSTRUCTIONS)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.job_result_bytes(job["id"])
            assert excinfo.value.status == 409
        finally:
            block.set()
            client.wait(job["id"], timeout=60)


class TestAuth:
    @pytest.fixture
    def server(self, tmp_path):
        config = ServiceConfig(port=0,
                               auth=ApiKeyAuth.from_keys("letmein"))
        instance = ReproServer(config)
        instance.start()
        yield instance
        instance.shutdown(drain=True, timeout=60)

    def test_health_needs_no_key(self, server):
        assert ServiceClient(server.url).health()["package"] == "repro"

    def test_missing_key_is_401(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).suites()
        assert excinfo.value.status == 401

    def test_wrong_key_is_401(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url, api_key="wrong").suites()
        assert excinfo.value.status == 401

    def test_correct_key_is_accepted(self, server):
        client = ServiceClient(server.url, api_key="letmein")
        assert client.suites()

    def test_bearer_token_is_accepted_too(self, server):
        import json as json_module
        import urllib.request
        request = urllib.request.Request(
            f"{server.url}/v1/suites",
            headers={"Authorization": "Bearer letmein"})
        with urllib.request.urlopen(request, timeout=10) as response:
            assert json_module.loads(response.read())


class TestRateLimit:
    def test_work_endpoints_throttle_with_retry_after(self, tmp_path):
        clock = FakeClock()
        config = ServiceConfig(
            port=0, store=open_store(tmp_path / "s", backend="sqlite"),
            limiter=RateLimiter(rate=1.0, burst=1, clock=clock))
        server = ReproServer(config)
        server.start()
        try:
            client = ServiceClient(server.url)
            client.simulate("mcf", instructions=INSTRUCTIONS)
            with pytest.raises(ServiceError) as excinfo:
                client.simulate("mcf", instructions=INSTRUCTIONS)
            assert excinfo.value.status == 429
            # Polling endpoints stay unmetered even while throttled.
            assert client.health()
            assert client.jobs() == []
        finally:
            server.shutdown(drain=True, timeout=60)


class TestByteIdentity:
    def test_simulate_matches_inline_bytes(self, server, client):
        remote = client._request(
            "POST", "/v1/simulate",
            {"workload": "mcf", "scheme": "muontrap",
             "instructions": INSTRUCTIONS})
        inline = api.simulate("mcf", scheme="muontrap",
                              instructions=INSTRUCTIONS)
        assert remote == canonical_json(simulation_payload(inline))

    def test_machine_with_retired_key_matches_the_current_form(self, client):
        machine = SystemConfig(mode="muontrap")
        legacy = client.simulate("mcf", machine=legacy_machine_dict(machine),
                                 instructions=INSTRUCTIONS)
        current = client.simulate("mcf", machine=machine.to_dict(),
                                  instructions=INSTRUCTIONS)
        assert legacy == current

    def test_sweep_over_http_matches_inline_bytes(self, server, client):
        """The headline acceptance criterion."""
        job = client.submit_sweep("core.width", [2, 4], suite="mcf",
                                  instructions=INSTRUCTIONS)
        final = client.wait(job["id"], timeout=120)
        assert final["progress"]["done"] == final["progress"]["total"] > 0
        remote = client.job_result_bytes(job["id"])
        inline = api.sweep("core.width", [2, 4], suite="mcf",
                           instructions=INSTRUCTIONS)
        assert remote == canonical_json(sweep_payload(inline))


class TestExactlyOnce:
    def test_concurrent_identical_sweeps_share_a_job_and_the_store(
            self, server, tmp_path):
        """Two clients, same matrix, one SQLite store: one job id, and
        every cell lands in the store exactly once (an inline rerun of
        the same matrix executes zero cells)."""
        clients = [ServiceClient(server.url) for _ in range(2)]
        submissions = [None, None]

        def submit(index):
            submissions[index] = clients[index].submit_sweep(
                "core.width", [2, 4], suite="mcf",
                instructions=INSTRUCTIONS)

        threads = [threading.Thread(target=submit, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert submissions[0]["id"] == submissions[1]["id"]
        clients[0].wait(submissions[0]["id"], timeout=120)
        first = clients[0].job_result_bytes(submissions[0]["id"])
        second = clients[1].job_result_bytes(submissions[1]["id"])
        assert first == second
        # Every cell is already persisted: replaying the matrix inline
        # against the same store computes nothing.
        replay = api.sweep("core.width", [2, 4], suite="mcf",
                           instructions=INSTRUCTIONS,
                           store=server.config.store)
        stats = replay.comparison.result.stats
        assert stats.executed == 0
        assert stats.store_hits == stats.total > 0


class TestShutdown:
    def test_drained_shutdown_finishes_inflight_jobs(self, tmp_path):
        store = open_store(tmp_path / "store", backend="sqlite")
        server = ReproServer(ServiceConfig(port=0, store=store))
        server.start()
        client = ServiceClient(server.url)
        job = client.submit_compare(["muontrap"], suite="mcf",
                                    instructions=INSTRUCTIONS)
        assert server.shutdown(drain=True, timeout=120)
        finished = server.queue.get(job["id"])
        assert finished.status == "done"
        assert finished.result is not None

    def test_shutdown_of_a_server_never_started_returns(self):
        """socketserver's shutdown() waits for a serve loop that a server
        never started; ReproServer stops only a loop it started, and
        closes its socket either way."""
        server = ReproServer(ServiceConfig(port=0))
        stopper = threading.Thread(target=server.shutdown,
                                   kwargs={"drain": False}, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(server.address, timeout=5).close()

    def test_draining_server_rejects_new_submissions(self, tmp_path):
        server = ReproServer(ServiceConfig(port=0))
        server.start()
        client = ServiceClient(server.url)
        server.queue.drain(timeout=30)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit_compare(["muontrap"], suite="mcf",
                                      instructions=INSTRUCTIONS)
            assert excinfo.value.status == 503
        finally:
            server.shutdown(drain=False)

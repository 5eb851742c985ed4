"""The simulation service's HTTP server (``python -m repro serve``).

Stdlib only — :class:`http.server.ThreadingHTTPServer` plus the
:mod:`repro.api` facade — so tier-1 stays dependency-free and offline.

Routes (all JSON, canonical encoding):

==============================  ==============================================
``GET  /v1/health``             version / capability facts (no auth required)
``GET  /v1/suites``             benchmark suites (mirrors ``suites --json``)
``GET  /v1/schemes``            protection schemes (``schemes --json``)
``GET  /v1/machines``           machine presets (``machines --json``)
``POST /v1/simulate``           one cell, synchronous; returns the outcome
``POST /v1/compare``            suite × scheme matrix; returns a job id
``POST /v1/sweep``              parameter sweep; returns a job id
``GET  /v1/jobs``               all jobs (status documents)
``GET  /v1/jobs/<id>``          one job's status + progress
``GET  /v1/jobs/<id>/result``   the finished job's result payload — the raw
                                canonical bytes, byte-identical to
                                serialising the same :mod:`repro.api` call
                                run inline
==============================  ==============================================

Authentication is hashed-API-key (:mod:`repro.service.auth`; the
``X-API-Key`` header, or ``Authorization: Bearer <key>``); the rate
limiter (:mod:`repro.service.ratelimit`) meters only the three
work-submitting POST endpoints, keyed by API key (or client address when
auth is off).  Machine descriptions in request bodies use the
``--machine-file`` schema and resolve through the same
:func:`repro.api.resolve_machine` path as every other consumer.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.harness.campaign import DEFAULT_SEED, Campaign
from repro.harness.store import StoreBackend
from repro.harness.suites import UnknownSuiteError
from repro.service.auth import ApiKeyAuth
from repro.service.jobs import DONE, FAILED, Job, JobQueue
from repro.service.ratelimit import RateLimiter
from repro.service.serialize import (
    canonical_json,
    comparison_payload,
    machines_payload,
    schemes_payload,
    simulation_payload,
    suites_payload,
    sweep_payload,
    version_payload,
)
from repro.telemetry.log import get_logger, log_event

#: Request-body keys accepted per endpoint; anything else is a 400, so a
#: typo (``"benchamrk"``) fails loudly instead of silently running the
#: default matrix.
_SIMULATE_PARAMS = frozenset(
    {"workload", "machine", "scheme", "seed", "instructions", "label"})
_COMPARE_PARAMS = frozenset(
    {"schemes", "suite", "machine", "baseline", "instructions", "seed",
     "replicates"})
_SWEEP_PARAMS = frozenset(
    {"parameter", "values", "suite", "machine", "scheme", "baseline",
     "instructions", "seed", "replicates"})


class RequestError(Exception):
    """A client error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServiceConfig:
    """Everything :class:`ReproServer` needs, in one place."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Result store shared by all requests (``None`` = recompute always).
    store: Optional[StoreBackend] = None
    #: Campaign worker processes per job (1 = in-process, no fork).
    jobs: int = 1
    auth: ApiKeyAuth = field(default_factory=ApiKeyAuth)
    limiter: Optional[RateLimiter] = None
    #: Job-queue worker threads.  The default of 1 serialises jobs, which
    #: with a shared store is the strongest exactly-once-compute setting.
    queue_workers: int = 1
    max_body_bytes: int = 1 << 20


class ReproServer:
    """The HTTP front end: owns the socket, the job queue and the store."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = JobQueue(self._run_job,
                              workers=self.config.queue_workers)
        self._logger = get_logger("service.server")
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.repro_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when port 0 was
        requested."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve on a background thread; returns once the socket accepts."""
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            daemon=True, name="repro-serve")
        self._thread.start()
        log_event(self._logger, "server_started", url=self.url,
                  auth=self.config.auth.enabled,
                  store=self.config.store.describe()
                  if self.config.store is not None else None)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> bool:
        """Stop serving; with ``drain`` wait for in-flight jobs first.

        Returns ``True`` when the queue drained within ``timeout`` (a
        non-draining shutdown always returns ``True``).
        """
        drained = self.queue.drain(timeout=timeout) if drain else True
        if self._thread is not None:
            # Only a running serve loop can be stopped: on a server that
            # never started, socketserver's shutdown() waits forever.
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
        self._httpd.server_close()
        log_event(self._logger, "server_stopped", drained=drained)
        return drained

    # -- job execution --------------------------------------------------------
    def _build_campaign(self, kind: str,
                        params: Dict[str, Any]) -> Campaign:
        """The campaign of a compare or sweep request.

        :meth:`_submit` builds it once to answer a request that can only
        fail with a 400, and the job builds it again to run it.  Each
        parameter the request names is passed on, and an absent one keeps
        the facade's default; ``"baseline": null`` normalises against the
        first series.
        """
        from repro import api
        options = {name: value for name, value in params.items()
                   if name not in ("schemes", "parameter", "values")}
        if kind == "compare":
            return api.build_comparison(
                params["schemes"], store=self.config.store,
                jobs=self.config.jobs, **options)
        return api._build_sweep(params["parameter"], params["values"],
                                store=self.config.store,
                                jobs=self.config.jobs, **options)

    def _run_job(self, job: Job) -> Dict[str, Any]:
        from repro import api
        campaign = self._build_campaign(job.kind, job.params)
        comparison = api.ComparisonOutcome(
            campaign=campaign,
            result=campaign.run(progress=job.update_progress))
        job.failed_cells = len(comparison.result.failures)
        if job.kind == "compare":
            return comparison_payload(comparison)
        return sweep_payload(api.SweepOutcome(
            parameter=job.params["parameter"],
            values=list(job.params["values"]), comparison=comparison))

    # -- request handling (called from handler threads) -----------------------
    def handle(self, method: str, path: str, body: Optional[Dict[str, Any]],
               api_key: Optional[str], client: str
               ) -> Tuple[int, Dict[str, str], bytes]:
        """Dispatch one request; returns ``(status, headers, body_bytes)``."""
        if path == "/v1/health" and method == "GET":
            return self._json(200, version_payload())
        if not self.config.auth.authorise(api_key):
            raise RequestError(401, "missing or invalid API key")
        if method == "GET":
            return self._handle_get(path)
        if method == "POST":
            identity = api_key if api_key else client
            return self._handle_post(path, body, identity)
        raise RequestError(405, f"method {method} not allowed")

    def _handle_get(self, path: str) -> Tuple[int, Dict[str, str], bytes]:
        if path == "/v1/suites":
            return self._json(200, suites_payload())
        if path == "/v1/schemes":
            return self._json(200, schemes_payload())
        if path == "/v1/machines":
            return self._json(200, machines_payload())
        if path == "/v1/jobs":
            return self._json(200, [job.payload()
                                    for job in self.queue.jobs()])
        if path.startswith("/v1/jobs/"):
            return self._handle_job_get(path[len("/v1/jobs/"):])
        raise RequestError(404, f"no such resource: {path}")

    def _handle_job_get(self, tail: str
                        ) -> Tuple[int, Dict[str, str], bytes]:
        job_id, _, verb = tail.partition("/")
        job = self.queue.get(job_id)
        if job is None:
            raise RequestError(404, f"no such job: {job_id}")
        if not verb:
            return self._json(200, job.payload())
        if verb != "result":
            raise RequestError(404, f"no such resource: jobs/{tail}")
        if job.status == FAILED:
            raise RequestError(409, f"job {job_id} failed: {job.error}")
        if job.status != DONE:
            raise RequestError(409, f"job {job_id} is {job.status}; "
                               f"poll /v1/jobs/{job_id} until done")
        # The byte-identity contract: raw canonical bytes of the result
        # payload, nothing wrapped around them.
        return 200, {"Content-Type": "application/json"}, \
            canonical_json(job.result)

    def _handle_post(self, path: str, body: Optional[Dict[str, Any]],
                     identity: str) -> Tuple[int, Dict[str, str], bytes]:
        if path not in ("/v1/simulate", "/v1/compare", "/v1/sweep"):
            raise RequestError(404, f"no such resource: {path}")
        if self.config.limiter is not None:
            admitted, retry_after = self.config.limiter.allow(identity)
            if not admitted:
                raise RequestError(
                    429, f"rate limit exceeded; retry in "
                    f"{retry_after:.2f}s") from None
        params = body if body is not None else {}
        if not isinstance(params, dict):
            raise RequestError(400, "request body must be a JSON object")
        if path == "/v1/simulate":
            return self._simulate(params)
        kind = path.rsplit("/", 1)[1]
        return self._submit(kind, params)

    def _simulate(self, params: Dict[str, Any]
                  ) -> Tuple[int, Dict[str, str], bytes]:
        from repro import api
        _check_params("simulate", params, _SIMULATE_PARAMS,
                      required=("workload",))
        try:
            outcome = api.simulate(
                params["workload"], params.get("machine"),
                scheme=params.get("scheme"),
                seed=params.get("seed", DEFAULT_SEED),
                instructions=params.get("instructions"),
                label=params.get("label"),
                store=self.config.store)
        except (ValueError, TypeError, KeyError, UnknownSuiteError) as exc:
            raise RequestError(400, _message(exc)) from exc
        return 200, {"Content-Type": "application/json"}, \
            canonical_json(simulation_payload(outcome))

    def _submit(self, kind: str, params: Dict[str, Any]
                ) -> Tuple[int, Dict[str, str], bytes]:
        if kind == "compare":
            _check_params(kind, params, _COMPARE_PARAMS,
                          required=("schemes",))
        else:
            _check_params(kind, params, _SWEEP_PARAMS,
                          required=("parameter", "values"))
        try:
            self._build_campaign(kind, params)
        except (ValueError, TypeError, KeyError, UnknownSuiteError) as exc:
            raise RequestError(400, _message(exc)) from exc
        try:
            job, created = self.queue.submit(kind, params)
        except RuntimeError as exc:  # draining
            raise RequestError(503, str(exc)) from exc
        status = 202 if created else 200
        return self._json(status, job.payload())

    @staticmethod
    def _json(status: int, payload: Any
              ) -> Tuple[int, Dict[str, str], bytes]:
        return status, {"Content-Type": "application/json"}, \
            canonical_json(payload)


def _message(error: Exception) -> str:
    """An error's message text: the ``str`` of a ``KeyError`` (an unknown
    suite or benchmark) is its message's repr, quotes and all."""
    return str(error.args[0]) if error.args else str(error)


def _check_params(endpoint: str, params: Dict[str, Any],
                  allowed: frozenset, required: Tuple[str, ...]) -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise RequestError(
            400, f"{endpoint}: unknown parameter(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(allowed))}")
    missing = [name for name in required if name not in params]
    if missing:
        raise RequestError(
            400, f"{endpoint}: missing required parameter(s) "
            f"{', '.join(missing)}")


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from ``http.server`` onto :meth:`ReproServer.handle`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    @property
    def _repro(self) -> ReproServer:
        return self.server.repro_server  # type: ignore[attr-defined]

    def _api_key(self) -> Optional[str]:
        key = self.headers.get("X-API-Key")
        if key:
            return key
        authorization = self.headers.get("Authorization", "")
        if authorization.startswith("Bearer "):
            return authorization[len("Bearer "):].strip()
        return None

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        if length > self._repro.config.max_body_bytes:
            raise RequestError(
                413, f"request body of {length} bytes exceeds the "
                f"{self._repro.config.max_body_bytes}-byte limit")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, f"request body is not valid JSON: "
                               f"{exc}") from exc

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            body = self._read_body() if method == "POST" else None
            status, headers, payload = self._repro.handle(
                method, path, body, self._api_key(),
                self.client_address[0])
        except RequestError as exc:
            status = exc.status
            headers = {"Content-Type": "application/json"}
            if status == 429:
                # exc.message ends "...retry in X.XXs"; the header wants
                # whole seconds.
                seconds = exc.message.rsplit(" ", 1)[-1].rstrip("s")
                try:
                    headers["Retry-After"] = str(
                        max(1, math.ceil(float(seconds))))
                except ValueError:
                    headers["Retry-After"] = "1"
            payload = canonical_json({"error": exc.message})
        except Exception as exc:  # noqa: BLE001 — never kill the thread
            log_event(get_logger("service.server"), "request_error",
                      path=path, error=f"{type(exc).__name__}: {exc}")
            status = 500
            headers = {"Content-Type": "application/json"}
            payload = canonical_json(
                {"error": f"{type(exc).__name__}: {exc}"})
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log_event(get_logger("service.http"), "request",
                  _level=10, client=self.client_address[0],
                  line=format % args)


__all__ = ["ReproServer", "RequestError", "ServiceConfig"]

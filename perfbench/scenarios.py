"""The benchmark's three workloads.

* ``spec-long`` -- long single-threaded SPEC samples, run in process and
  serially through ``api.simulate`` under the five figure schemes, with
  the traces generated during set-up.  Per-instruction cost dominates.
* ``campaign-short`` -- many default-length cells (Parsec, the co-run
  mixes and a SPEC slice; MuonTrap against the unprotected baseline), run
  in process through ``api.compare`` with ``jobs=1`` and no store.  System
  construction, cold caches and four-core coherence weigh in.
* ``service-store`` -- a ``python -m repro serve`` subprocess with a fresh
  SQLite-WAL store and ``--jobs`` set to the core count.  Phase A submits
  cold ``compare`` jobs; phase B sends cached ``simulate`` requests for
  cells phase A stored.

Every workload is a closed loop from one client: the next request goes out
only after the previous one has been answered.  Inputs come from the
benchmark seed, which picks each workload's trace seeds from
:data:`TRACE_SEEDS` and the order of its requests; the expected
``(cycles, instructions)`` of every cell under every trace seed is checked
in, so every run is checked against it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers

#: Simulation seeds the benchmark seed chooses from (1234 is the
#: repository's default seed).  The oracle covers every one of them.
TRACE_SEEDS = (1234, 2027, 4242, 9001)

#: The five schemes of the paper's Figures 3 and 4.
FIGURE_SCHEMES = ("muontrap", "invisispec-spectre", "invisispec-future",
                  "stt-spectre", "stt-future")

#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_ips": "instr/s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MiB",
}

#: Printed beside the end-to-end metrics but not part of them: on a
#: shared two-vCPU host their run-to-run spread exceeds any usable bound
#: (see NOTES.md).
INFORMATIONAL_UNITS = {"req_p50_ms": "ms", "req_p90_ms": "ms"}


def expected_key(workload: str, size: str, benchmark: str, scheme: str,
                 seed: int) -> str:
    return f"{workload}|{size}|{benchmark}|{scheme}|{seed}"


@dataclass
class Context:
    """One benchmark invocation: its inputs, oracle and failure ledger."""

    root: Path
    size: str
    seed: int
    seconds: float
    expected: Dict[str, List[int]]
    work_dir: Path
    env: Dict[str, str]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, workload: str, benchmark: str, scheme: str, seed: int,
              cycles: int, instructions: int) -> bool:
        """Count one cell and compare it with the checked-in oracle."""
        self.attempted += 1
        key = expected_key(workload, self.size, benchmark, scheme, seed)
        want = self.expected.get(key)
        if want is None:
            self.fail(f"{key}: no expected value")
            return False
        if [cycles, instructions] != list(want):
            self.fail(f"{key}: got cycles={cycles} instructions="
                      f"{instructions}, expected {want[0]}/{want[1]}")
            return False
        return True


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(seconds: Sequence[float]) -> Dict[str, float]:
    """Request latency in ms; zeros when no request succeeded."""
    if len(seconds) < 2:
        return {"req_p50_ms": 0.0, "req_p90_ms": 0.0}
    return {"req_p50_ms": 1000 * statistics.median(seconds),
            "req_p90_ms": 1000 * p90(seconds)}


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_fresh_processes(command: List[str], ctx: Context) -> List[float]:
    """Seconds from spawning ``command`` until it prints ``ready``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ctx.root, env=ctx.env,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {command}")
    return samples


@dataclass
class Pass:
    """One measured sweep over a workload's requests."""

    wall: float = 0.0
    cells: int = 0
    instructions: int = 0
    latencies: List[float] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)


class InProcess:
    """What the two in-process workloads share."""

    name = ""
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, size: str) -> None:
        self.config = self.sizes[size]

    # -- inputs ---------------------------------------------------------------
    def trace_seeds(self, rng: random.Random) -> Dict[str, int]:
        """The simulation seed of each benchmark."""
        return {benchmark: rng.choice(TRACE_SEEDS)
                for benchmark in self.config["benchmarks"]}

    def cells(self) -> List[Tuple[str, str, int]]:
        """Every (benchmark, scheme, instructions) the oracle must cover."""
        raise NotImplementedError

    # -- set-up -----------------------------------------------------------------
    def prepare(self, seed: int) -> None:
        """What a fresh process does before its first timed request."""
        import repro.api  # noqa: F401 -- the import is part of set-up

    def setup_samples(self, ctx: Context) -> List[float]:
        command = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--probe-setup", "--workload", self.name,
                   "--seed", str(ctx.seed), "--size", ctx.size]
        return time_fresh_processes(command, ctx)

    # -- measurement ------------------------------------------------------------
    def one_pass(self, ctx: Context, collect_stats: bool = False) -> Pass:
        raise NotImplementedError

    def measure(self, ctx: Context) -> Dict[str, float]:
        """As many whole passes as fit into ``--seconds`` by the first
        pass's duration (at least one); a partial pass would skew the mix
        of cheap and costly requests."""
        setup = self.setup_samples(ctx)
        self.prepare(ctx.seed)
        passes = [self.one_pass(ctx)]
        if passes[0].wall:  # else every request failed
            count = int(ctx.seconds // passes[0].wall)
            passes += [self.one_pass(ctx) for _ in range(count - 1)]
        wall = sum(p.wall for p in passes) or 1.0
        metrics = {
            "setup_s": statistics.median(setup),
            "sim_ips": sum(p.instructions for p in passes) / wall,
            "cells_per_s": sum(p.cells for p in passes) / wall,
            "peak_rss_mb": own_peak_rss_mb(),
        }
        metrics.update(latency_metrics(
            [latency for p in passes for latency in p.latencies]))
        return metrics

    def trace(self, ctx: Context) -> Tuple[Dict[str, float], Dict[str, Any]]:
        """Traced, untraced and profiled passes over the same requests."""
        recorder = layers.SpanRecorder().install()
        try:
            self.prepare(ctx.seed)
            traced = self.one_pass(ctx, collect_stats=True)
        finally:
            recorder.uninstall()
        plain = self.one_pass(ctx)
        profiler = layers.PackageProfiler().install()
        try:
            profiled = self.one_pass(ctx)
        finally:
            profiler.uninstall()
        metrics = layers.summarise(recorder.records + profiler.records)
        metrics.update(layers.model_counters(traced.results))
        metrics["service.simulate_ms"] = 0.0
        metrics["service.simulate_p90_ms"] = 0.0
        metrics["service.compare_ms"] = 0.0
        report = overhead_report(plain.wall, traced.wall, profiled.wall)
        metrics["bench.trace_overhead"] = report["trace_overhead"]
        metrics["bench.profile_overhead"] = report["profile_overhead"]
        report["cell_seconds"] = sum(
            record.get("cell_seconds", 0.0) for record in profiler.records)
        return metrics, report


def overhead_report(plain: float, traced: float,
                    profiled: float) -> Dict[str, Any]:
    return {"untraced_wall_s": plain, "traced_wall_s": traced,
            "profiled_wall_s": profiled,
            "trace_overhead": traced / plain - 1.0,
            "profile_overhead": profiled / plain - 1.0}


class SpecLong(InProcess):
    name = "spec-long"
    sizes = {
        "full": {"benchmarks": ("povray", "mcf"),
                 "instructions": 100_000},
        "smoke": {"benchmarks": ("povray", "mcf"), "instructions": 1_500},
    }

    def cells(self):
        return [(benchmark, scheme, self.config["instructions"])
                for benchmark in self.config["benchmarks"]
                for scheme in FIGURE_SCHEMES]

    def _schedule(self, seed: int) -> List[Tuple[str, str, int]]:
        """(benchmark, scheme, trace seed) per request, in request order."""
        rng = random.Random(seed)
        seeds = self.trace_seeds(rng)
        cells = [(benchmark, scheme, seeds[benchmark])
                 for benchmark in self.config["benchmarks"]
                 for scheme in FIGURE_SCHEMES]
        rng.shuffle(cells)
        return cells

    def prepare(self, seed):
        """Imports, then cold generation, packing and execution planning
        of every trace, as ``materialize_shared_traces`` does them."""
        from repro.workloads.generator import generate_workload
        from repro.workloads.profiles import get_profile
        from repro.workloads.trace import DEFAULT_LINE_SIZE
        seeds = self.trace_seeds(random.Random(seed))
        for benchmark, trace_seed in seeds.items():
            workload = generate_workload(get_profile(benchmark),
                                         self.config["instructions"],
                                         seed=trace_seed)
            for trace in workload:
                trace.packed().plan(DEFAULT_LINE_SIZE)

    def one_pass(self, ctx, collect_stats=False):
        from repro import api
        instructions = self.config["instructions"]
        result = Pass()
        for benchmark, scheme, trace_seed in self._schedule(ctx.seed):
            started = time.perf_counter()
            try:
                outcome = api.simulate(benchmark, scheme=scheme,
                                       seed=trace_seed,
                                       instructions=instructions,
                                       collect_stats=collect_stats)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                ctx.attempted += 1
                ctx.fail(f"{self.name} {benchmark}/{scheme}: "
                         f"{type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - started
            result.wall += latency
            result.latencies.append(latency)
            result.cells += 1
            result.instructions += instructions  # single-threaded SPEC
            result.results.append(outcome.result)
            ctx.check(self.name, benchmark, scheme, trace_seed,
                      outcome.cycles, outcome.instructions)
        return result


#: Series label -> scheme of the MuonTrap-versus-baseline comparisons.
COMPARE_LABELS = {"MuonTrap": "muontrap", "baseline": "unprotected"}


def compare_cells(benchmarks: Sequence[str], instructions: int):
    return [(benchmark, scheme, instructions) for benchmark in benchmarks
            for scheme in COMPARE_LABELS.values()]


class CampaignShort(InProcess):
    name = "campaign-short"
    sizes = {
        "full": {"benchmarks": (
            "blackscholes", "canneal", "ferret", "fluidanimate",
            "streamcluster",
            "mix-cache-stream", "mix-pointer-pointer", "mix-quad",
            "mix-stream-stream",
            "astar", "gcc", "libquantum", "milc", "namd"),
            "instructions": 8_000},
        "smoke": {"benchmarks": ("blackscholes", "mix-stream-stream",
                                 "namd"),
                  "instructions": 600},
    }

    def cells(self):
        return compare_cells(self.config["benchmarks"],
                             self.config["instructions"])

    def _schedule(self, seed: int) -> List[Tuple[str, int]]:
        """(benchmark, trace seed) per request, in request order."""
        rng = random.Random(seed)
        seeds = self.trace_seeds(rng)
        benchmarks = list(self.config["benchmarks"])
        rng.shuffle(benchmarks)
        return [(benchmark, seeds[benchmark]) for benchmark in benchmarks]

    def one_pass(self, ctx, collect_stats=False):
        from repro import api
        instructions = self.config["instructions"]
        result = Pass()
        for benchmark, trace_seed in self._schedule(ctx.seed):
            threads = max(1, api.resolve_workload(benchmark).num_threads)
            started = time.perf_counter()
            try:
                outcome = api.compare(["muontrap"], suite=benchmark,
                                      baseline="unprotected",
                                      instructions=instructions,
                                      seed=trace_seed, jobs=1,
                                      collect_stats=collect_stats)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                ctx.attempted += len(COMPARE_LABELS)
                ctx.fail(f"{self.name} {benchmark}: "
                         f"{type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - started
            result.wall += latency
            result.latencies.append(latency)
            for failure in outcome.result.failures:
                ctx.attempted += 1
                ctx.fail(f"{self.name} {benchmark}/{failure.label}: "
                         f"quarantined: {failure.error}")
            for (bench, label, seed), run in outcome.result.runs.items():
                result.cells += 1
                result.instructions += instructions * threads
                result.results.append(run)
                ctx.check(self.name, bench, COMPARE_LABELS[label], seed,
                          run.cycles, run.instructions)
        return result


def _die_with_parent() -> None:
    """In the child before exec: ask Linux to SIGTERM it if the benchmark
    dies without stopping it (a no-op elsewhere)."""
    try:
        import ctypes
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    """A ``repro serve`` subprocess on an ephemeral port with a fresh
    SQLite-WAL store in its own temporary directory."""

    def __init__(self, ctx: Context, instrument: Optional[str] = None
                 ) -> None:
        self.ctx = ctx
        self.instrument = instrument
        self.tmp: Optional[Path] = None
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    @property
    def spool(self) -> Path:
        return self.tmp / "spool"

    def start(self) -> float:
        """Start and wait for a healthy ``/v1/health``; returns seconds."""
        from repro.service.client import ServiceClient, ServiceError
        tmp_root = self.ctx.work_dir / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=tmp_root))
        serve_args = ["--port", "0", "--store",
                      str(self.tmp / "store.sqlite3"),
                      "--store-backend", "sqlite",
                      "--jobs", str(len(os.sched_getaffinity(0)))]
        if self.instrument is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable,
                       str(Path(__file__).with_name("serve.py")),
                       "--spool", str(self.spool),
                       "--instrument", self.instrument, "--", *serve_args]
        out = self.tmp / "server.out"
        started = time.perf_counter()
        with out.open("w") as stdout, \
                (self.tmp / "server.err").open("w") as stderr:
            self.process = subprocess.Popen(
                command, cwd=self.ctx.root, env=self.ctx.env,
                stdout=stdout, stderr=stderr, preexec_fn=_die_with_parent)
        print(f"server pid {self.process.pid} dir {self.tmp}",
              file=sys.stderr, flush=True)
        deadline = started + 60
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            banner = out.read_text()
            if not self.url and banner.endswith("\n"):
                # "serving on http://127.0.0.1:PORT (auth ..., store ...)"
                self.url = banner.split()[2]
            if self.url:
                try:
                    ServiceClient(self.url, timeout=5).health()
                    return time.perf_counter() - started
                except ServiceError:
                    pass
            time.sleep(0.002)
        log = (self.tmp / "server.err").read_text()[-2000:]
        raise RuntimeError(f"server did not become healthy:\n{log}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> List[Dict[str, Any]]:
        """SIGTERM (the server drains), then kill if it lingers; returns
        the spooled layer records and removes the temporary directory."""
        records: List[Dict[str, Any]] = []
        try:
            if self.process is not None and self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            if self.instrument is not None and self.tmp is not None \
                    and self.spool.is_dir():
                records = layers.read_spool(self.spool)
        finally:
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)
        return records


class ServiceStore:
    name = "service-store"
    sizes = {
        "full": {"benchmarks": ("astar", "bzip2", "gcc", "gobmk", "h264ref",
                                "hmmer", "libquantum", "mcf", "omnetpp",
                                "sjeng", "xalancbmk"),
                 "instructions": 8_000, "requests": 200},
        "smoke": {"benchmarks": ("namd", "povray"), "instructions": 600,
                  "requests": 20},
    }

    def __init__(self, size: str) -> None:
        self.config = self.sizes[size]

    def cells(self):
        return compare_cells(self.config["benchmarks"],
                             self.config["instructions"])

    def _params(self, seed: int) -> Dict[str, Any]:
        return {"suite": list(self.config["benchmarks"]),
                "baseline": "unprotected",
                "instructions": self.config["instructions"], "seed": seed}

    def phase_a(self, ctx: Context, client, seed: int
                ) -> Tuple[float, int]:
        """One cold compare job, polled to completion; (seconds, cells)."""
        from repro.service.client import ServiceError
        started = time.perf_counter()
        try:
            job = client.submit_compare(["muontrap"], **self._params(seed))
            client.wait(job["id"], timeout=150, poll=0.01)
            payload = json.loads(client.job_result_bytes(job["id"]))
        except ServiceError as exc:
            ctx.attempted += len(self.cells())
            ctx.fail(f"{self.name} compare seed {seed}: {exc}")
            return time.perf_counter() - started, 0
        seconds = time.perf_counter() - started
        for failure in payload["failures"]:
            ctx.attempted += 1
            ctx.fail(f"{self.name} {failure['benchmark']}/"
                     f"{failure['label']}: quarantined: {failure['error']}")
        for key, run in payload["runs"].items():
            benchmark, label, run_seed = key.split("|")
            ctx.check(self.name, benchmark, COMPARE_LABELS[label],
                      int(run_seed), run["cycles"], run["instructions"])
        return seconds, len(payload["runs"])

    def phase_b(self, ctx: Context, client, seeds: Sequence[int],
                rng: random.Random) -> List[float]:
        """Cached simulate requests, one at a time; their latencies."""
        from repro.service.client import ServiceError
        cells = [(benchmark, scheme, seed) for seed in seeds
                 for benchmark, scheme, _ in self.cells()]
        latencies: List[float] = []
        for _ in range(self.config["requests"]):
            benchmark, scheme, seed = rng.choice(cells)
            started = time.perf_counter()
            try:
                payload = client.simulate(
                    benchmark, scheme=scheme, seed=seed,
                    instructions=self.config["instructions"])
            except ServiceError as exc:
                ctx.attempted += 1
                ctx.fail(f"{self.name} simulate {benchmark}/{scheme}: {exc}")
                continue
            latencies.append(time.perf_counter() - started)
            ctx.check(self.name, benchmark, scheme, seed,
                      payload["result"]["cycles"],
                      payload["result"]["instructions"])
        return latencies

    def check_serialisation(self, ctx: Context, client, seed: int) -> None:
        """A served ``simulate`` equals serialising the in-process call."""
        from repro import api
        from repro.service.client import ServiceError
        from repro.service.serialize import canonical_json, simulation_payload
        benchmark = self.config["benchmarks"][0]
        params = {"scheme": "muontrap", "seed": seed,
                  "instructions": self.config["instructions"]}
        ctx.attempted += 1
        try:
            served = client.simulate(benchmark, **params)
        except ServiceError as exc:
            ctx.fail(f"{self.name} serialisation check: {exc}")
            return
        local = json.loads(canonical_json(simulation_payload(
            api.simulate(benchmark, **params))))
        if served != local:
            ctx.fail(f"{self.name}: served simulate of {benchmark} differs "
                     f"from serialising the in-process api.simulate call")

    def measure(self, ctx: Context) -> Dict[str, float]:
        from repro.service.client import ServiceClient
        rng = random.Random(ctx.seed)
        order = rng.sample(TRACE_SEEDS, len(TRACE_SEEDS))
        setup: List[float] = []
        server = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server = Server(ctx)
                setup.append(server.start())
            client = ServiceClient(server.url, timeout=120)
            # As many cold jobs, one per trace seed, as fit into
            # ``--seconds`` by the first job's duration (at least one).
            compares = [self.phase_a(ctx, client, order[0])]
            count = int(ctx.seconds // compares[0][0])
            seeds = order[:max(1, min(count, len(order)))]
            compares += [self.phase_a(ctx, client, seed)
                         for seed in seeds[1:]]
            print("phase B", file=sys.stderr, flush=True)
            latencies = self.phase_b(ctx, client, seeds, rng)
            self.check_serialisation(ctx, client, seeds[0])
            peak = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        # Every served benchmark is single-threaded, so a cell simulates
        # exactly ``instructions`` instructions.
        instructions = self.config["instructions"]
        rates = [cells / seconds for seconds, cells in compares if cells]
        metrics = {
            "setup_s": statistics.median(setup),
            "sim_ips": statistics.median(rates) * instructions if rates
            else 0.0,
            "cells_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak,
        }
        metrics.update(latency_metrics(latencies))
        return metrics

    def _service_pass(self, ctx: Context, instrument: Optional[str],
                      seed: int) -> Tuple[float, float, List[float], list]:
        """Fresh server, one cold compare, a fixed count of cached
        requests: (wall, compare seconds, request latencies, records)."""
        from repro.service.client import ServiceClient
        server = Server(ctx, instrument)
        try:
            server.start()
            client = ServiceClient(server.url, timeout=120)
            started = time.perf_counter()
            compare_seconds, _ = self.phase_a(ctx, client, seed)
            latencies = self.phase_b(ctx, client, [seed],
                                     random.Random(ctx.seed))
            wall = time.perf_counter() - started
        finally:
            records = server.stop()
        return wall, compare_seconds, latencies, records

    def trace(self, ctx: Context) -> Tuple[Dict[str, float], Dict[str, Any]]:
        from repro import api
        seed = random.Random(ctx.seed).choice(TRACE_SEEDS)
        plain, _, _, _ = self._service_pass(ctx, None, seed)
        traced, compare_seconds, latencies, spans = self._service_pass(
            ctx, "spans", seed)
        profiled, _, _, profile = self._service_pass(ctx, "profile", seed)
        metrics = layers.summarise(spans + profile)
        # The served cells, re-simulated in process for their statistics.
        outcome = api.compare(["muontrap"], collect_stats=True, jobs=1,
                              **self._params(seed))
        for (benchmark, label, run_seed), run in outcome.result.runs.items():
            ctx.check(self.name, benchmark, COMPARE_LABELS[label], run_seed,
                      run.cycles, run.instructions)
        metrics.update(layers.model_counters(outcome.result.runs.values()))
        latency = latency_metrics(latencies)
        metrics["service.simulate_ms"] = latency["req_p50_ms"]
        metrics["service.simulate_p90_ms"] = latency["req_p90_ms"]
        metrics["service.compare_ms"] = 1000 * compare_seconds
        report = overhead_report(plain, traced, profiled)
        metrics["bench.trace_overhead"] = report["trace_overhead"]
        metrics["bench.profile_overhead"] = report["profile_overhead"]
        report["cell_seconds"] = sum(
            record.get("cell_seconds", 0.0) for record in profile)
        return metrics, report


WORKLOADS = {cls.name: cls for cls in (SpecLong, CampaignShort,
                                       ServiceStore)}

"""Supervised cell execution: the campaign harness's executor layer.

:func:`repro.harness.campaign.execute_cells` used to hand pending cells to
a bare ``multiprocessing.Pool.imap``, which made three failure modes
fatal: a worker that dies abruptly (SIGKILL, OOM-kill) leaves its cell's
result unfulfilled forever and deadlocks the sweep; a hung cell blocks
every cell queued behind it; and any exception aborts the whole campaign.
This module replaces that with *supervised dispatch*:

* an :class:`Executor` abstraction — :class:`SerialExecutor` runs cells
  inline, :class:`PoolExecutor` runs them on a supervised pool of worker
  processes with per-cell completion tracking;
* the supervisor detects dead workers (process exit without a reply),
  spawns replacements and re-dispatches their cells;
* a per-cell timeout (``REPRO_CELL_TIMEOUT`` / ``--cell-timeout``) kills
  hung workers and re-dispatches their cells;
* failed cells are retried with bounded deterministic backoff
  (``REPRO_MAX_RETRIES`` / ``--max-retries``, default 2); cells that
  exhaust their retries become quarantined :class:`FailedCell` records —
  the sweep completes and reports them instead of aborting;
* SIGINT/SIGTERM trigger a graceful shutdown: workers are terminated,
  completed results stay flushed (the campaign layer persists each result
  as it completes), and a :class:`KeyboardInterrupt` propagates so
  callers can print a partial report with a resume hint.

Because :func:`~repro.harness.campaign.run_cell` is a pure function of
its spec, none of this affects the *values* computed: a campaign that
suffered retries, timeouts and worker deaths produces byte-identical
results to an undisturbed run — the invariant the chaos test tier
(driven by :mod:`repro.harness.faults`) locks in.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Callable, List, Optional, Sequence, Tuple

from repro.telemetry.log import get_logger, log_event
from repro.telemetry.phases import PHASES

#: Environment variable: per-cell timeout in seconds (unset = no timeout).
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Environment variable: retries per failed cell (unset = 2).
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

#: Default retries per failed cell when neither argument nor env is given.
DEFAULT_MAX_RETRIES = 2

#: Deterministic backoff before re-dispatching a failed cell:
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(attempt-1))`` seconds.  Bounded
#: and non-random, so chaos runs stay reproducible.
BACKOFF_BASE_SECONDS = 0.02
BACKOFF_CAP_SECONDS = 1.0

#: Supervisor poll interval while waiting on worker replies.
_POLL_SECONDS = 0.05


def env_float(name: str, minimum: float = 0.0) -> Optional[float]:
    """Read a float environment variable, or ``None`` when unset.

    Mirrors :func:`repro.sim.runner.env_int`: a set-but-malformed value is
    a configuration mistake reported with a clear message naming the
    variable.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be a number, "
            f"got {raw!r}") from None
    if not value > minimum:     # also rejects "nan", which compares false
        raise ValueError(
            f"environment variable {name} must be greater than {minimum}, "
            f"got {raw!r}")
    return value


def default_max_retries() -> int:
    """``REPRO_MAX_RETRIES`` or the module default."""
    from repro.sim.runner import env_int
    value = env_int(MAX_RETRIES_ENV, minimum=0)
    return DEFAULT_MAX_RETRIES if value is None else value


def default_cell_timeout() -> Optional[float]:
    """``REPRO_CELL_TIMEOUT`` in seconds, or ``None`` (no timeout)."""
    return env_float(CELL_TIMEOUT_ENV, minimum=0.0)


def retry_backoff(attempt: int) -> float:
    """Seconds to wait before dispatching ``attempt`` (1-based retry)."""
    return min(BACKOFF_CAP_SECONDS,
               BACKOFF_BASE_SECONDS * (2.0 ** max(0, attempt - 1)))


@dataclass(frozen=True)
class FailedCell:
    """A quarantined cell: it exhausted its retries and was given up on.

    Carried on :attr:`repro.harness.campaign.CampaignResult.failures`;
    the sweep completes without it, reports annotate it as FAILED, and a
    re-run (the fault gone) computes exactly the missing cells.
    """

    key: str
    benchmark: str
    label: str
    seed: int
    error: str
    attempts: int
    seconds: float


class CellExecutionError(RuntimeError):
    """Raised when cells fail permanently and no quarantine was requested.

    Callers that pass a ``failures`` list to
    :func:`~repro.harness.campaign.execute_cells` get quarantined
    :class:`FailedCell` records instead; callers that don't (single-cell
    paths like :func:`repro.api.simulate`) get this exception, preserving
    the historical fail-fast contract.
    """

    def __init__(self, failures: Sequence[FailedCell]) -> None:
        self.failures = list(failures)
        first = self.failures[0]
        detail = (f" (and {len(self.failures) - 1} more)"
                  if len(self.failures) > 1 else "")
        super().__init__(
            f"{len(self.failures)} cell(s) failed permanently after "
            f"{first.attempts} attempt(s): {first.benchmark}/{first.label} "
            f"seed {first.seed}: {first.error}{detail}")


#: Callback signatures the executors drive.
CompleteCallback = Callable[[str, "RunSpec", "SimulationResult", float], None]
FailureCallback = Callable[[FailedCell], None]


class _Task:
    """One cell in flight: its spec plus retry bookkeeping."""

    __slots__ = ("key", "spec", "workload", "attempt", "errors", "seconds",
                 "not_before")

    def __init__(self, key: str, spec) -> None:
        self.key = key
        self.spec = spec
        #: Cells with equal workloads run on one generated trace.
        self.workload = (spec.profile, spec.instructions, spec.seed)
        self.attempt = 0
        self.errors: List[str] = []
        self.seconds = 0.0
        self.not_before = 0.0

    def failed(self) -> FailedCell:
        return FailedCell(
            key=self.key, benchmark=self.spec.benchmark,
            label=self.spec.label, seed=self.spec.seed,
            error=self.errors[-1] if self.errors else "unknown error",
            attempts=self.attempt, seconds=self.seconds)


class Executor:
    """Base class: retry/timeout policy shared by both executors."""

    def __init__(self, *, max_retries: Optional[int] = None,
                 cell_timeout: Optional[float] = None) -> None:
        self.max_retries = (default_max_retries() if max_retries is None
                            else max(0, max_retries))
        self.cell_timeout = (default_cell_timeout() if cell_timeout is None
                             else cell_timeout)
        self._logger = get_logger("harness.executor")

    def execute(self, tasks: Sequence[Tuple[str, "RunSpec"]], *,
                stats, on_complete: CompleteCallback,
                on_failure: FailureCallback) -> None:
        raise NotImplementedError

    def _record_failure(self, task: _Task, error: str, stats,
                        on_failure: FailureCallback) -> bool:
        """Common retry-or-quarantine decision; True when re-dispatching."""
        task.errors.append(error)
        task.attempt += 1
        if task.attempt > self.max_retries:
            stats.failed += 1
            log_event(self._logger, "cell_quarantined",
                      _level=logging.WARNING,
                      benchmark=task.spec.benchmark, label=task.spec.label,
                      seed=task.spec.seed, attempts=task.attempt,
                      error=error)
            on_failure(task.failed())
            return False
        stats.retries += 1
        task.not_before = time.monotonic() + retry_backoff(task.attempt)
        log_event(self._logger, "cell_retry",
                  benchmark=task.spec.benchmark, label=task.spec.label,
                  seed=task.spec.seed, attempt=task.attempt, error=error)
        return True


class SerialExecutor(Executor):
    """Run cells inline, in submission order, with the retry policy.

    No processes are involved, so there is no timeout enforcement (a hung
    cell hangs the caller) and only ``exc`` faults are injected —
    ``kill``/``hang`` faults would take down or block the caller itself.
    This is the executor behind ``--jobs 1`` and single-cell API calls.
    """

    def execute(self, tasks, *, stats, on_complete, on_failure) -> None:
        from repro.harness.campaign import run_cell
        from repro.harness.faults import active_fault_plan
        for key, spec in tasks:
            task = _Task(key, spec)
            while True:
                wait = task.not_before - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                started = time.perf_counter()
                try:
                    plan = active_fault_plan()
                    if plan is not None:
                        plan.apply_worker_faults(key, task.attempt,
                                                 kinds=("exc",))
                    result = run_cell(spec)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    task.seconds += time.perf_counter() - started
                    error = f"{type(exc).__name__}: {exc}"
                    if self._record_failure(task, error, stats, on_failure):
                        continue
                    break
                seconds = time.perf_counter() - started
                task.seconds += seconds
                on_complete(key, spec, result, seconds)
                break


def _worker_main(conn) -> None:
    """Worker-process loop: receive (key, spec, attempt), reply with the
    result or the error description plus the cell's phase timings; exit
    on the ``None`` sentinel / EOF.

    SIGINT is ignored so a Ctrl-C in the supervisor's terminal (delivered
    to the whole process group) doesn't race the supervisor's own
    graceful shutdown; the supervisor terminates workers explicitly.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    from repro.harness.campaign import run_cell
    from repro.harness.faults import active_fault_plan
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        key, spec, attempt = message
        # This process's PHASES is a fork-time copy nobody else reads:
        # emptied per cell, it holds exactly the timings to send back.
        PHASES.reset()
        started = time.perf_counter()
        try:
            plan = active_fault_plan()
            if plan is not None:
                plan.apply_worker_faults(key, attempt)
            result = run_cell(spec)
            kind, payload = "ok", result
        except BaseException as exc:  # noqa: BLE001 — reported, not hidden
            kind, payload = "error", f"{type(exc).__name__}: {exc}"
        reply = (kind, payload, time.perf_counter() - started,
                 PHASES.totals(), PHASES.counts())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _WorkerHandle:
    """One supervised worker process plus its command pipe, and the
    workloads of the cells it has been given.  Its trace cache keeps only
    the last ``MEMORY_ENTRIES`` of them, so a workload here may have to be
    generated again."""

    __slots__ = ("process", "conn", "task", "deadline", "workloads")

    def __init__(self, context) -> None:
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(target=_worker_main,
                                       args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None
        self.workloads: set = set()

    def assign(self, task: _Task, timeout: Optional[float]) -> None:
        self.task = task
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        self.workloads.add(task.workload)
        self.conn.send((task.key, task.spec, task.attempt))

    @property
    def idle(self) -> bool:
        return self.task is None

    def shutdown(self, graceful: bool = True) -> None:
        """Stop the worker: sentinel, short join, then terminate/kill."""
        if graceful and self.process.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=0.2 if graceful else 0.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=0.5)


class PoolExecutor(Executor):
    """Supervised worker-process pool with completion tracking.

    Each worker is a long-lived process fed one cell at a time over a
    pipe, and the supervisor knows exactly which cell every worker holds.
    That mapping is what bare ``pool.imap`` lacked: when a worker dies or
    exceeds the cell timeout, its cell — and only its cell — is
    re-dispatched to a fresh process.

    Workers generate the traces of the cells they run, in parallel,
    through their own trace cache.  Dispatch keeps the cells of one
    workload on one worker (:meth:`_next_runnable`), so each trace is
    usually generated once; a replacement worker starts with none.
    """

    def __init__(self, workers: Optional[int] = None, *,
                 max_retries: Optional[int] = None,
                 cell_timeout: Optional[float] = None) -> None:
        super().__init__(max_retries=max_retries, cell_timeout=cell_timeout)
        if workers is None:
            from repro.sim.runner import parallel_jobs
            workers = parallel_jobs(default=None)
        self.workers = max(1, workers)
        try:
            self._context = get_context("fork")
        except ValueError:
            self._context = get_context()
        self._interrupted = False

    # -- signal handling ------------------------------------------------------
    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM into the supervisor loop's stop flag.

        Only possible from the main thread; elsewhere the default
        KeyboardInterrupt delivery already unwinds through ``execute``'s
        ``finally`` cleanup.
        """
        def _handler(signum, frame):
            self._interrupted = True
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):
                pass
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    # -- supervision ----------------------------------------------------------
    def execute(self, tasks, *, stats, on_complete, on_failure) -> None:
        queue = deque(_Task(key, spec) for key, spec in tasks)
        outstanding = len(queue)
        pool: List[_WorkerHandle] = []
        self._interrupted = False
        previous_handlers = self._install_signal_handlers()
        try:
            while outstanding > 0 and not self._interrupted:
                self._reap_and_dispatch(queue, pool)
                outstanding -= self._poll_workers(
                    queue, pool, stats, on_complete, on_failure)
        finally:
            for worker in pool:
                worker.shutdown(graceful=not self._interrupted)
            self._restore_signal_handlers(previous_handlers)
        if self._interrupted:
            log_event(self._logger, "execute_interrupted",
                      remaining=outstanding)
            raise KeyboardInterrupt

    def _reap_and_dispatch(self, queue, pool: List[_WorkerHandle]) -> None:
        """Top up the pool and hand queued tasks to idle workers."""
        now = time.monotonic()
        # Workers wanted: one per runnable task, capped at the pool size.
        busy = sum(1 for worker in pool if not worker.idle)
        runnable = sum(1 for task in queue if task.not_before <= now)
        wanted = min(self.workers, busy + runnable)
        while len(pool) < wanted:
            pool.append(_WorkerHandle(self._context))
        for worker in list(pool):
            if not worker.idle:
                continue
            task = self._next_runnable(queue, now, worker, pool)
            if task is None:
                break
            try:
                worker.assign(task, self.cell_timeout)
            except (BrokenPipeError, OSError):
                # The worker died while idle; retire it on the spot (a
                # replacement is spawned next pass) and requeue the task.
                worker.task = None
                worker.shutdown(graceful=False)
                pool.remove(worker)
                queue.appendleft(task)

    @staticmethod
    def _next_runnable(queue, now: float, worker,
                       pool) -> Optional[_Task]:
        """Pop the task an idle ``worker`` runs next.

        Among the tasks whose backoff window has elapsed, in queue order:
        the first whose workload this worker has run, else the first whose
        workload no other worker in ``pool`` has run, else the first.  The
        last case steals a cell at the tail, and regenerating its trace
        beats leaving the worker idle.
        """
        # ``worker``'s own workloads are in ``elsewhere`` too, which changes
        # no choice: the loop stops at the first task of one of them.
        elsewhere = set().union(*(other.workloads for other in pool))
        own = fresh = first = None
        for task in queue:
            if task.not_before > now:
                continue
            if task.workload in worker.workloads:
                own = task
                break
            if first is None:
                first = task
            if fresh is None and task.workload not in elsewhere:
                fresh = task
        task = own or fresh or first
        if task is not None:
            queue.remove(task)
        return task

    def _poll_workers(self, queue, pool, stats, on_complete,
                      on_failure) -> int:
        """One supervision step; returns the number of tasks settled."""
        settled = 0
        busy = [worker for worker in pool if not worker.idle]
        if not busy:
            # Every remaining task is waiting out its backoff.
            time.sleep(_POLL_SECONDS)
            return 0
        try:
            ready = connection.wait([worker.conn for worker in busy],
                                    timeout=_POLL_SECONDS)
        except (OSError, InterruptedError):
            ready = []
        now = time.monotonic()
        for worker in busy:
            task = worker.task
            if task is None:
                continue
            if worker.conn in ready:
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    settled += self._worker_died(worker, queue, pool, stats,
                                                 on_failure)
                    continue
                worker.task, worker.deadline = None, None
                kind, payload, seconds, totals, counts = reply
                for name, total in totals.items():
                    PHASES.add(name, total, counts[name])
                task.seconds += seconds
                if kind == "ok":
                    on_complete(task.key, task.spec, payload, seconds)
                    settled += 1
                elif self._record_failure(task, payload, stats, on_failure):
                    queue.append(task)
                else:
                    settled += 1
            elif not worker.process.is_alive():
                settled += self._worker_died(worker, queue, pool, stats,
                                             on_failure)
            elif worker.deadline is not None and now > worker.deadline:
                settled += self._worker_timed_out(worker, queue, pool, stats,
                                                  on_failure)
        return settled

    def _worker_died(self, worker, queue, pool, stats, on_failure) -> int:
        """A worker exited without replying (SIGKILL, OOM, ``os._exit``)."""
        task = worker.task
        exitcode = worker.process.exitcode
        stats.worker_restarts += 1
        log_event(self._logger, "worker_died", exitcode=exitcode,
                  benchmark=task.spec.benchmark, label=task.spec.label,
                  seed=task.spec.seed)
        self._replace(worker, pool)
        error = f"worker died (exit code {exitcode})"
        if self._record_failure(task, error, stats, on_failure):
            queue.append(task)
            return 0
        return 1

    def _worker_timed_out(self, worker, queue, pool, stats,
                          on_failure) -> int:
        """A cell exceeded the per-cell timeout: kill its worker."""
        task = worker.task
        stats.timeouts += 1
        log_event(self._logger, "cell_timeout",
                  benchmark=task.spec.benchmark, label=task.spec.label,
                  seed=task.spec.seed, timeout=self.cell_timeout)
        worker.task = None
        worker.shutdown(graceful=False)
        pool.remove(worker)
        error = f"cell timeout after {self.cell_timeout}s"
        if self._record_failure(task, error, stats, on_failure):
            queue.append(task)
            return 0
        return 1

    @staticmethod
    def _replace(worker: _WorkerHandle, pool: List[_WorkerHandle]) -> None:
        """Retire a dead worker (a replacement is spawned on dispatch)."""
        worker.task = None
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=0.5)
        pool.remove(worker)

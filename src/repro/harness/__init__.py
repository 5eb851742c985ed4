"""Campaign harness: suites, parallel execution, result cache, reporting.

The harness layers on top of :mod:`repro.sim`:

* :mod:`repro.harness.suites` — named, composable benchmark sets
  (``spec_int``, ``spec_fp``, ``spec_all``, ``parsec``, ``mixed``, plus
  user-registered suites);
* :mod:`repro.harness.campaign` — expansion of suites × configurations ×
  seeds into a run matrix, executed through the supervised executor layer
  with deterministic results;
* :mod:`repro.harness.executor` — supervised cell execution:
  :class:`SerialExecutor` / :class:`PoolExecutor` with per-cell timeouts,
  bounded deterministic retries, dead-worker re-dispatch and quarantine
  of permanently failing cells;
* :mod:`repro.harness.faults` — deterministic, seed-driven fault
  injection (``REPRO_FAULTS``) used by the chaos test tier to prove the
  fault-tolerance invariants;
* :mod:`repro.harness.store` — a persistent result store keyed by a
  stable content hash, with atomic integrity-checked writes and two
  pluggable backends (per-directory JSON files, SQLite in WAL mode),
  making repeated campaigns incremental, crash-safe and shareable
  between concurrent processes;
* :mod:`repro.harness.report` — text / markdown / CSV tables with
  geometric means (quarantined cells annotated as FAILED).

The ``python -m repro`` command line (:mod:`repro.__main__`) exposes the
harness as ``run`` / ``report`` / ``clean`` subcommands.
"""

from repro.harness.campaign import (
    Campaign,
    CampaignResult,
    DEFAULT_SEED,
    ExecutionStats,
    RunSpec,
    derive_seed,
    execute_cells,
    run_cell,
)
from repro.harness.executor import (
    CellExecutionError,
    Executor,
    FailedCell,
    PoolExecutor,
    SerialExecutor,
)
from repro.harness.faults import (
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    InjectedFault,
    active_fault_plan,
    parse_fault_specs,
)
from repro.harness.report import Report
from repro.harness.store import (
    JsonResultStore,
    ResultStore,
    SqliteResultStore,
    StoreBackend,
    migrate_store,
    open_store,
    result_from_dict,
    result_to_dict,
    stable_key,
)
from repro.harness.suites import (
    SPEC_FP,
    SPEC_INT,
    UnknownSuiteError,
    register_suite,
    resolve_suite,
    resolve_suites,
    suite_names,
    unregister_suite,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "CellExecutionError",
    "DEFAULT_SEED",
    "ExecutionStats",
    "Executor",
    "FailedCell",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "InjectedFault",
    "JsonResultStore",
    "PoolExecutor",
    "Report",
    "ResultStore",
    "RunSpec",
    "SPEC_FP",
    "SPEC_INT",
    "SerialExecutor",
    "SqliteResultStore",
    "StoreBackend",
    "UnknownSuiteError",
    "active_fault_plan",
    "derive_seed",
    "execute_cells",
    "migrate_store",
    "open_store",
    "parse_fault_specs",
    "register_suite",
    "resolve_suite",
    "resolve_suites",
    "result_from_dict",
    "result_to_dict",
    "run_cell",
    "stable_key",
    "suite_names",
    "unregister_suite",
]

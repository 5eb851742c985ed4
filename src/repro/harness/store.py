"""Persistent result store for campaign runs — pluggable backends.

Every simulation cell — one benchmark under one system configuration for a
given instruction budget and seed — is identified by a stable content hash
of its inputs.  Results persist under that key in one of two backends
sharing a single entry format and integrity discipline:

* :class:`ResultStore` — one JSON file per cell in a directory.  Parallel
  writers never contend on a shared index file, and the layout is
  trivially inspectable (``cat <key>.json``).
* :class:`SqliteResultStore` — one SQLite database in WAL mode.  Many
  processes (campaign supervisors, HTTP service threads, concurrent
  clients) coordinate through one file with transactional writes, which
  is what lets a widened sweep compute each missing cell exactly once
  across the whole fleet.

:func:`open_store` selects the backend (explicit argument, then the
``REPRO_STORE_BACKEND`` environment variable, then layout auto-detection)
and :func:`migrate_store` copies entries between backends, verifying each
entry's integrity digest as it goes.

The simulator itself is deterministic, which is what makes caching by input
hash sound: the same (profile, config, instructions, seed) always produces
the same :class:`~repro.sim.simulator.SimulationResult`.

The store is also the campaign harness's crash-safety anchor: writes are
atomic (a unique-tmp-then-``os.replace`` rename for the JSON backend, a
transaction for SQLite, optionally fsynced via ``REPRO_STORE_FSYNC=1``),
every entry carries a sha256 integrity digest of its result payload, and
reads *evict* corrupt or torn entries instead of silently returning
``None`` — so after any crash, re-running a campaign recomputes exactly
the missing or damaged cells and nothing else.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.common.env import env_flag
from repro.common.jsonable import jsonable
from repro.common.params import SystemConfig
from repro.cpu.core import CoreResult
from repro.sim.simulator import SimulationResult
from repro.telemetry.log import get_logger, log_event
from repro.workloads.profiles import WorkloadProfile

#: Bump when the serialised result layout changes; stale entries are ignored.
#: v2: results carry per-core clock frequencies (frequency-scaled times).
#: v3: entries carry a sha256 integrity digest of the result payload, so
#: torn writes are detected and evicted rather than half-trusted.
STORE_VERSION = 3

#: Environment variable: truthy values fsync entries before rename (and the
#: directory after), trading write latency for power-loss durability.
STORE_FSYNC_ENV = "REPRO_STORE_FSYNC"

#: Environment variable: default result-store backend (``json`` or
#: ``sqlite``) for :func:`open_store` when no explicit backend is given.
STORE_BACKEND_ENV = "REPRO_STORE_BACKEND"

#: The recognised backend names, normalised form first.
STORE_BACKENDS = ("json", "sqlite")

#: Distinguishes temporary files written by concurrent threads of one
#: process; the pid distinguishes processes.
_TMP_COUNTER = itertools.count()


def stable_key(profile: WorkloadProfile, config: SystemConfig,
               instructions: int, seed: int,
               warmup_fraction: float = 0.0,
               collect_stats: bool = False) -> str:
    """Content hash identifying one simulation cell.

    The hash covers everything that determines the simulation outcome — the
    full workload profile (not just its name, so ad-hoc profiles cannot
    collide with registry entries), the complete system configuration, the
    instruction budget and the seed.  The display label deliberately does
    not participate, so renaming a series does not invalidate cached
    results.
    """
    payload = {
        "profile": jsonable(profile),
        "config": jsonable(config),
        "instructions": instructions,
        "seed": seed,
        "warmup_fraction": warmup_fraction,
        "collect_stats": collect_stats,
        "version": STORE_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """A result as plain JSON values: its dataclass's fields, no others."""
    return jsonable(result)


def _from_fields(cls: type, payload: Dict[str, Any]) -> Any:
    """``cls(**payload)``, refusing a payload that lacks any field."""
    missing = {field.name for field in dataclasses.fields(cls)} - set(payload)
    if missing:
        raise KeyError(f"{cls.__name__} payload lacks {sorted(missing)}")
    return cls(**payload)


def result_from_dict(payload: Dict[str, Any]) -> SimulationResult:
    """The inverse of :func:`result_to_dict`; raises on a payload that
    lacks a field or carries an unknown one."""
    return _from_fields(SimulationResult, {
        **payload, "core_results": [_from_fields(CoreResult, core)
                                    for core in payload["core_results"]]})


def result_digest(result_payload: Dict[str, Any]) -> str:
    """The integrity digest stored beside (and verified against) a result."""
    canonical = json.dumps(result_payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Sentinel returned by ``load_entry`` for entries that exist but cannot
#: even be parsed (as opposed to ``None`` for entries that do not exist).
CORRUPT = object()

#: The reason for an entry that is skipped but not damaged, so not evicted.
STALE_VERSION = "stale-version"


def unservable_reason(payload: Any) -> Optional[str]:
    """Why a loaded entry cannot be served, or ``None`` when it can.

    The one entry rule of the store, shared by :meth:`StoreBackend.get`
    and :func:`migrate_store`: ``unparseable-json`` for an entry that is
    not a parsed mapping, :data:`STALE_VERSION` for one written under
    another :data:`STORE_VERSION`, and ``integrity-mismatch`` for a result
    payload that is missing or does not match its sha256 digest.
    """
    if not isinstance(payload, dict):
        return "unparseable-json"
    if payload.get("version") != STORE_VERSION:
        return STALE_VERSION
    result_payload = payload.get("result")
    if not isinstance(result_payload, dict) \
            or payload.get("sha256") != result_digest(result_payload):
        return "integrity-mismatch"
    return None


class StoreBackend(abc.ABC):
    """The result-store protocol both backends implement.

    Concrete backends only provide raw entry storage (``load_entry`` /
    ``store_entry`` / ``delete_entry`` / ``keys`` / ``clear``); the
    integrity discipline — version checks, sha256 digest verification,
    eviction of corrupt or torn entries — lives here, so every backend
    gives campaigns the same crash-safety guarantees.
    """

    #: Short name used by ``--store-backend`` / ``REPRO_STORE_BACKEND``.
    backend_name = "abstract"

    def __init__(self, fsync: Optional[bool] = None) -> None:
        self.fsync = (env_flag(STORE_FSYNC_ENV, default=False)
                      if fsync is None else fsync)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._logger = get_logger("harness.store")

    # -- raw entry storage (per backend) -----------------------------------
    @abc.abstractmethod
    def load_entry(self, key: str) -> Any:
        """The raw entry payload dict, ``None`` when absent, or
        :data:`CORRUPT` when present but unparseable."""

    @abc.abstractmethod
    def store_entry(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist one raw entry payload atomically (last writer wins)."""

    @abc.abstractmethod
    def delete_entry(self, key: str) -> bool:
        """Remove one entry; ``True`` if something was removed."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """All stored keys in sorted order."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every stored result; returns the number removed."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One human-readable line naming the backend and its location."""

    # -- shared integrity discipline ----------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.load_entry(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def _evict(self, key: str, reason: str) -> None:
        """Delete a damaged entry so it cannot fail again on every run."""
        if not self.delete_entry(key):
            return
        self.evictions += 1
        log_event(self._logger, "store_evicted", _level=logging.WARNING,
                  key=key, reason=reason)

    def get(self, key: str) -> Optional[SimulationResult]:
        """Load a cached result, or ``None`` on miss / stale entry.

        Corrupt entries — unparseable JSON, a missing or mismatching
        integrity digest, an undecodable result payload — are *evicted*
        (deleted, with a logged warning), so the next campaign run
        recomputes the cell instead of tripping over the damage forever.
        Entries from older store versions are merely skipped.
        """
        payload = self.load_entry(key)
        if payload is None:
            self.misses += 1
            return None
        reason = unservable_reason(payload)
        if reason is None:
            try:
                result = result_from_dict(payload["result"])
            except (KeyError, TypeError, ValueError):
                reason = "undecodable-result"
            else:
                self.hits += 1
                return result
        if reason != STALE_VERSION:
            self._evict(key, reason)
        self.misses += 1
        return None

    def put(self, key: str, result: SimulationResult,
            metadata: Optional[Dict[str, Any]] = None) -> None:
        """Persist one result atomically under its content-hash key."""
        result_payload = result_to_dict(result)
        self.store_entry(key, {
            "version": STORE_VERSION,
            "key": key,
            "metadata": metadata or {},
            "result": result_payload,
            "sha256": result_digest(result_payload),
        })

    def metadata(self, key: str) -> Dict[str, Any]:
        payload = self.load_entry(key)
        if not isinstance(payload, dict):
            return {}
        return payload.get("metadata", {})


class ResultStore(StoreBackend):
    """A directory of per-cell JSON result files (the ``json`` backend).

    ``fsync=True`` (or ``REPRO_STORE_FSYNC=1``) makes each write durable
    against power loss, not just process crashes; the default relies on
    ``os.replace`` atomicity alone, which is what the integrity digest in
    each entry backstops — a torn write is detected and evicted on read.
    """

    backend_name = "json"

    def __init__(self, root: os.PathLike,
                 fsync: Optional[bool] = None) -> None:
        super().__init__(fsync=fsync)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def describe(self) -> str:
        return f"json:{self.root}"

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("*.json")):
            yield path.stem

    def load_entry(self, key: str) -> Any:
        try:
            return json.loads(self._path(key).read_text())
        except OSError:
            return None
        except json.JSONDecodeError:
            return CORRUPT

    def delete_entry(self, key: str) -> bool:
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def store_entry(self, key: str, payload: Dict[str, Any]) -> None:
        """Write one entry atomically (unique tmp file, then rename).

        The temporary name embeds the pid and a per-process counter, so
        concurrent workers (or threads) writing the same key never collide
        on the intermediate file; ``os.replace`` makes the last writer
        win atomically.  With :attr:`fsync` enabled the entry is synced
        before the rename and the directory after it.
        """
        path = self._path(key)
        tmp = self.root / (f".{key}.{os.getpid()}."
                           f"{next(_TMP_COUNTER)}.tmp")
        try:
            with tmp.open("w") as handle:
                handle.write(json.dumps(payload, sort_keys=True, indent=1))
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        if self.fsync:
            self._fsync_dir()

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def clear(self) -> int:
        """Delete every stored result; returns the number removed.

        Stray temporary files (from writers that crashed mid-``put``) are
        swept too, without counting towards the total.
        """
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        for path in self.root.glob(".*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed


#: Explicit alias for symmetry with :class:`SqliteResultStore`.
JsonResultStore = ResultStore


class SqliteResultStore(StoreBackend):
    """A single SQLite database in WAL mode (the ``sqlite`` backend).

    WAL journalling gives concurrent readers a consistent snapshot while
    one writer commits, which is exactly the service/campaign sharing
    pattern: many HTTP threads and campaign supervisors read, completed
    cells are inserted one transaction at a time.  A writer killed
    mid-transaction rolls back on the next open — the entry is simply
    absent, costing one recompute, never a torn row.

    Each process keeps one connection (with a busy timeout), opened on
    first use and shared by its threads under one lock.  Opening a
    connection per operation would make every put pay for a checkpoint,
    since closing the last connection to a WAL database checkpoints it.
    A forked child never uses its parent's connection: it opens its own
    under a new lock.
    """

    backend_name = "sqlite"

    #: Database filename inside a store root directory.
    DB_FILENAME = "results.sqlite3"

    #: Suffixes accepted as "the root *is* the database file".
    _DB_SUFFIXES = (".sqlite", ".sqlite3", ".db")

    def __init__(self, root: os.PathLike,
                 fsync: Optional[bool] = None) -> None:
        super().__init__(fsync=fsync)
        root = Path(root)
        if root.suffix in self._DB_SUFFIXES:
            self.root = root.parent
            self.path = root
        else:
            self.root = root
            self.path = root / self.DB_FILENAME
        self.root.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._inherited: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()
        self._pid = os.getpid()
        with self._connection() as conn, conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT PRIMARY KEY,"
                " version INTEGER NOT NULL,"
                " sha256 TEXT NOT NULL,"
                " metadata TEXT NOT NULL,"
                " result TEXT NOT NULL)")

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """This process's connection, held under the store's lock."""
        if self._pid != os.getpid():
            # Forked: the parent's connection and lock are not ours.  Keep
            # that connection referenced, unused and unclosed, since
            # closing it here would act on the parent's SQLite locks.
            self._inherited, self._conn = self._conn, None
            self._lock = threading.Lock()
            self._pid = os.getpid()
        with self._lock:
            if self._conn is None:
                self._conn = self._connect()
            yield self._conn

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0,
                               check_same_thread=False)
        # WAL persists in the database file; re-issuing it is a no-op
        # read.  synchronous/busy_timeout are per-connection.  Switching
        # a new file to WAL needs it exclusively, and SQLite reports it
        # locked at once, without waiting out the busy timeout, while
        # another process switches it too: retry until the timeout.
        deadline = time.monotonic() + 30.0
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if ("locked" not in str(error)
                        or time.monotonic() > deadline):
                    conn.close()
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute("PRAGMA synchronous=%s"
                     % ("FULL" if self.fsync else "NORMAL"))
        return conn

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def keys(self) -> Iterator[str]:
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT key FROM results ORDER BY key").fetchall()
        for (key,) in rows:
            yield key

    def __len__(self) -> int:
        with self._connection() as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, key: str) -> bool:
        with self._connection() as conn:
            return conn.execute("SELECT 1 FROM results WHERE key = ?",
                                (key,)).fetchone() is not None

    def load_entry(self, key: str) -> Any:
        try:
            with self._connection() as conn:
                row = conn.execute(
                    "SELECT version, sha256, metadata, result FROM results"
                    " WHERE key = ?", (key,)).fetchone()
        except sqlite3.Error:
            # A damaged database file is indistinguishable from a miss at
            # this level; the row-level digest discipline cannot repair
            # it, so report the miss and leave the file for inspection.
            return None
        if row is None:
            return None
        version, sha256, metadata_text, result_text = row
        try:
            metadata = json.loads(metadata_text)
            result_payload = json.loads(result_text)
        except (TypeError, json.JSONDecodeError):
            return CORRUPT
        return {"version": version, "key": key, "metadata": metadata,
                "result": result_payload, "sha256": sha256}

    def store_entry(self, key: str, payload: Dict[str, Any]) -> None:
        with self._connection() as conn, conn:
            conn.execute(
                "INSERT OR REPLACE INTO results"
                " (key, version, sha256, metadata, result)"
                " VALUES (?, ?, ?, ?, ?)",
                (key, payload["version"], payload["sha256"],
                 json.dumps(payload.get("metadata") or {}, sort_keys=True),
                 json.dumps(payload["result"], sort_keys=True,
                            separators=(",", ":"))))

    def delete_entry(self, key: str) -> bool:
        try:
            with self._connection() as conn, conn:
                cursor = conn.execute(
                    "DELETE FROM results WHERE key = ?", (key,))
                return cursor.rowcount > 0
        except sqlite3.Error:
            return False

    def clear(self) -> int:
        with self._connection() as conn, conn:
            count = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            conn.execute("DELETE FROM results")
        return count


def store_backend_from_env() -> Optional[str]:
    """The ``REPRO_STORE_BACKEND`` value, validated, or ``None`` if unset."""
    raw = os.environ.get(STORE_BACKEND_ENV, "").strip().lower()
    if not raw:
        return None
    if raw not in STORE_BACKENDS:
        raise ValueError(
            f"environment variable {STORE_BACKEND_ENV} must be one of "
            f"{', '.join(STORE_BACKENDS)}; got {raw!r}")
    return raw


def open_store(root: Union[str, os.PathLike],
               backend: Optional[str] = None,
               fsync: Optional[bool] = None) -> StoreBackend:
    """Open a result store, selecting the backend.

    Precedence: the explicit ``backend`` argument, then the
    ``REPRO_STORE_BACKEND`` environment variable, then auto-detection by
    layout (a root that is — or contains — a SQLite database opens as
    ``sqlite``), then the ``json`` default.  Auto-detection is what keeps
    a migrated store working without passing ``--store-backend`` on every
    subsequent command.
    """
    if backend is None:
        backend = store_backend_from_env()
    if backend is None:
        root_path = Path(root)
        if root_path.suffix in SqliteResultStore._DB_SUFFIXES \
                or (root_path / SqliteResultStore.DB_FILENAME).is_file():
            backend = "sqlite"
        else:
            backend = "json"
    backend = backend.strip().lower()
    if backend == "json":
        return ResultStore(root, fsync=fsync)
    if backend == "sqlite":
        return SqliteResultStore(root, fsync=fsync)
    raise ValueError(f"unknown result-store backend {backend!r}: "
                     f"expected one of {', '.join(STORE_BACKENDS)}")


def migrate_store(source: StoreBackend,
                  dest: StoreBackend) -> Tuple[int, int]:
    """Copy every entry from ``source`` to ``dest``, verifying digests.

    Entries are copied verbatim (metadata and digest included) so a
    round-trip migration is lossless.  Each entry's sha256 integrity
    digest is re-verified against its result payload before the copy;
    corrupt, torn or old-version entries are skipped with a logged
    warning rather than propagated.  Returns ``(copied, skipped)``.
    """
    logger = get_logger("harness.store")
    copied = skipped = 0
    for key in source.keys():
        payload = source.load_entry(key)
        reason = unservable_reason(payload)
        if reason is not None:
            skipped += 1
            log_event(logger, "migrate_skipped", _level=logging.WARNING,
                      key=key, reason=reason)
            continue
        dest.store_entry(key, payload)
        copied += 1
    log_event(logger, "migrate_done", source=source.describe(),
              dest=dest.describe(), copied=copied, skipped=skipped)
    return copied, skipped

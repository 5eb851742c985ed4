"""Tests for the pluggable store backends (JSON directory vs SQLite-WAL).

Covers the backend-selection path (``open_store`` argument > environment
> layout auto-detection), the shared integrity discipline applied
through both backends, ``migrate_store`` in both directions, and —
the reason the SQLite backend exists — multi-process behaviour: two
processes sharing one store root writing overlapping keys lose nothing,
and killing a writer mid-write costs at most the one in-flight entry.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.harness.store import (
    STORE_BACKEND_ENV,
    JsonResultStore,
    ResultStore,
    SqliteResultStore,
    migrate_store,
    open_store,
    result_digest,
    store_backend_from_env,
)
from tests.harness.test_store import make_result

BACKENDS = ["json", "sqlite"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def store(backend, tmp_path):
    return open_store(tmp_path / "results", backend=backend)


def tamper(store, key, mutate):
    """Modify a stored entry's payload in place, bypassing the digest."""
    if isinstance(store, SqliteResultStore):
        with sqlite3.connect(store.path) as conn:
            row = conn.execute(
                "SELECT version, sha256, metadata, result FROM results "
                "WHERE key = ?", (key,)).fetchone()
            payload = {"version": row[0], "key": key, "sha256": row[1],
                       "metadata": json.loads(row[2]),
                       "result": json.loads(row[3])}
            mutate(payload)
            conn.execute(
                "UPDATE results SET version = ?, sha256 = ?, result = ? "
                "WHERE key = ?",
                (payload["version"], payload["sha256"],
                 json.dumps(payload["result"]), key))
    else:
        path = store._path(key)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))


class TestSelection:
    def test_explicit_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "sqlite")
        assert isinstance(open_store(tmp_path, backend="json"),
                          JsonResultStore)

    def test_environment_selects_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "sqlite")
        assert isinstance(open_store(tmp_path), SqliteResultStore)

    def test_default_is_json(self, tmp_path):
        assert isinstance(open_store(tmp_path), JsonResultStore)

    def test_sqlite_layout_is_auto_detected(self, tmp_path):
        first = open_store(tmp_path, backend="sqlite")
        first.put("k", make_result())
        # A later open with no hints must find the same entries.
        reopened = open_store(tmp_path)
        assert isinstance(reopened, SqliteResultStore)
        assert reopened.get("k") == make_result()

    def test_db_file_path_is_auto_detected(self, tmp_path):
        store = open_store(tmp_path / "cells.sqlite3")
        assert isinstance(store, SqliteResultStore)
        store.put("k", make_result())
        assert (tmp_path / "cells.sqlite3").is_file()

    def test_invalid_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "postgres")
        with pytest.raises(ValueError, match="REPRO_STORE_BACKEND"):
            store_backend_from_env()

    def test_result_store_alias_is_json_backend(self, tmp_path):
        assert isinstance(ResultStore(tmp_path), JsonResultStore)


class TestSharedDiscipline:
    """Both backends enforce the same get/put integrity contract."""

    def test_round_trip_with_metadata(self, store):
        result = make_result()
        store.put("abc", result, metadata={"label": "MuonTrap"})
        assert "abc" in store
        assert len(store) == 1
        assert store.get("abc") == result
        assert store.metadata("abc") == {"label": "MuonTrap"}
        assert list(store.keys()) == ["abc"]

    def test_miss_and_hit_counters(self, store):
        assert store.get("nothere") is None
        store.put("k", make_result())
        store.get("k")
        assert (store.hits, store.misses) == (1, 1)

    def test_tampered_result_is_evicted(self, store):
        store.put("k", make_result())

        def flip(payload):
            payload["result"]["cycles"] += 1

        tamper(store, "k", flip)
        assert store.get("k") is None
        assert store.evictions == 1
        assert "k" not in store

    def test_stale_version_is_skipped_not_evicted(self, store):
        store.put("k", make_result())

        def age(payload):
            payload["version"] = -1

        tamper(store, "k", age)
        assert store.get("k") is None
        assert store.evictions == 0
        assert "k" in store  # still present, merely ignored

    def test_clear_empties_and_counts(self, store):
        store.put("a", make_result())
        store.put("b", make_result(cycles=777))
        assert store.clear() == 2
        assert len(store) == 0

    def test_describe_names_backend_and_location(self, store, backend):
        assert store.describe().startswith(f"{backend}:")

    def test_overwrite_replaces_entry(self, store):
        store.put("k", make_result(cycles=1))
        store.put("k", make_result(cycles=2))
        assert store.get("k") == make_result(cycles=2)
        assert len(store) == 1


class TestSqliteSpecifics:
    def test_wal_mode_is_persistent(self, tmp_path):
        store = open_store(tmp_path, backend="sqlite")
        store.put("k", make_result())
        with sqlite3.connect(store.path) as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_one_connection_serves_every_operation(self, tmp_path,
                                                   monkeypatch):
        opened = []
        connect = SqliteResultStore._connect

        def counting_connect(self):
            opened.append(os.getpid())
            return connect(self)

        monkeypatch.setattr(SqliteResultStore, "_connect", counting_connect)
        store = open_store(tmp_path, backend="sqlite")
        for index in range(5):
            store.put(f"k{index}", make_result(cycles=index + 1))
            assert store.get(f"k{index}") == make_result(cycles=index + 1)
        assert f"k{index}" in store and "absent" not in store
        assert list(store.keys()) == [f"k{index}" for index in range(5)]
        assert store.delete_entry("k0")
        assert store.clear() == 4
        assert len(store) == 0
        assert opened == [os.getpid()]

    def test_each_put_is_committed_for_other_connections(self, tmp_path):
        writer = open_store(tmp_path, backend="sqlite")
        reader = open_store(tmp_path, backend="sqlite")
        assert reader.get("k") is None
        writer.put("k", make_result(cycles=7))
        assert reader.get("k") == make_result(cycles=7)
        with sqlite3.connect(writer.path) as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0] == 1

    def test_forked_child_writes_through_the_parents_store(self, tmp_path):
        """A child forked with the store's connection open opens its own,
        and its commit is visible to the parent's connection."""
        store = open_store(tmp_path, backend="sqlite")
        store.put("parent", make_result(cycles=1))
        parent_connection = store._conn
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                store.put("child", make_result(cycles=2))
                if (store.get("parent") == make_result(cycles=1)
                        and store._conn is not parent_connection):
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done, "the forked child hung"
        assert os.waitstatus_to_exitcode(status) == 0
        assert store.get("child") == make_result(cycles=2)
        assert store.get("parent") == make_result(cycles=1)
        assert store.evictions == 0

    def test_threads_share_one_store(self, tmp_path):
        """Eight threads put and get through one store object; a write
        lost or crossed between threads would fail a read-back."""
        store = open_store(tmp_path, backend="sqlite")
        errors = []

        def work(thread):
            try:
                for index in range(20):
                    key = f"t{thread}-{index}"
                    store.put(key, make_result(cycles=thread * 100 + index))
                    if store.get(key) != make_result(
                            cycles=thread * 100 + index):
                        errors.append(f"{key} read back wrong")
            except (sqlite3.Error, OSError, ValueError) as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(thread,))
                       for thread in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 8 * 20

    def test_unreadable_database_reports_corrupt_entry(self, tmp_path):
        store = open_store(tmp_path / "db.sqlite3", backend="sqlite")
        store.put("k", make_result())
        # Garbage where the row's JSON should be => CORRUPT => evicted.
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE results SET result = '{broken'")
        assert store.get("k") is None
        assert store.evictions == 1


class TestMigrate:
    def test_json_to_sqlite_and_back(self, tmp_path):
        source = open_store(tmp_path / "a", backend="json")
        source.put("k1", make_result(cycles=1), metadata={"label": "x"})
        source.put("k2", make_result(cycles=2))
        middle = open_store(tmp_path / "b", backend="sqlite")
        assert migrate_store(source, middle) == (2, 0)
        assert middle.get("k1") == make_result(cycles=1)
        assert middle.metadata("k1") == {"label": "x"}
        dest = open_store(tmp_path / "c", backend="json")
        assert migrate_store(middle, dest) == (2, 0)
        assert dest.get("k2") == make_result(cycles=2)

    def test_tampered_entries_are_skipped_not_copied(self, tmp_path,
                                                     backend):
        source = open_store(tmp_path / "src", backend=backend)
        source.put("good", make_result())
        source.put("bad", make_result(cycles=9))

        def flip(payload):
            payload["result"]["cycles"] += 1

        tamper(source, "bad", flip)
        dest = open_store(tmp_path / "dst",
                          backend="json" if backend == "sqlite"
                          else "sqlite")
        assert migrate_store(source, dest) == (1, 1)
        assert dest.get("good") == make_result()
        assert "bad" not in dest

    def test_migrated_digests_verify_in_the_destination(self, tmp_path):
        source = open_store(tmp_path / "src", backend="json")
        source.put("k", make_result())
        dest = open_store(tmp_path / "dst", backend="sqlite")
        migrate_store(source, dest)
        entry = dest.load_entry("k")
        assert entry["sha256"] == result_digest(entry["result"])


#: Worker for the multi-process tests: writes KEYS entries to the shared
#: store, printing each key after its put() returns (= is committed).
_WRITER = textwrap.dedent("""\
    import sys
    from repro.harness.store import open_store
    from tests.harness.test_store import make_result

    root, backend, start, count = (sys.argv[1], sys.argv[2],
                                   int(sys.argv[3]), int(sys.argv[4]))
    store = open_store(root, backend=backend)
    for index in range(start, start + count):
        store.put(f"k{index:03d}", make_result(cycles=index),
                  metadata={"index": index})
        print(f"k{index:03d}", flush=True)
""")


def _worker_env():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root,
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


class TestConcurrentAccess:
    def test_two_processes_overlapping_keys_lose_nothing(self, backend,
                                                         tmp_path):
        """Two writers share one root and an overlapping key range; every
        key must afterwards hold a readable, digest-clean entry."""
        root = str(tmp_path / "shared")
        script = tmp_path / "writer.py"
        script.write_text(_WRITER)
        # Ranges [0, 30) and [20, 50): keys 20-29 are contended.
        procs = [subprocess.Popen(
            [sys.executable, str(script), root, backend, str(start), "30"],
            stdout=subprocess.PIPE, env=_worker_env(), text=True)
            for start in (0, 20)]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out
            assert len(out.split()) == 30
        store = open_store(root, backend=backend)
        for index in range(50):
            assert store.get(f"k{index:03d}") == make_result(cycles=index)
        assert store.evictions == 0

    def test_killed_writer_costs_at_most_one_entry(self, backend,
                                                   tmp_path):
        """SIGKILL mid-write: every key the child reported committed must
        be readable afterwards — the crash loses only in-flight work."""
        root = str(tmp_path / "shared")
        script = tmp_path / "writer.py"
        script.write_text(_WRITER)
        proc = subprocess.Popen(
            [sys.executable, str(script), root, backend, "0", "100000"],
            stdout=subprocess.PIPE, env=_worker_env(), text=True)
        committed = []
        for line in proc.stdout:
            committed.append(line.strip())
            if len(committed) >= 10:
                break
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
        assert len(committed) >= 10
        store = open_store(root, backend=backend)
        for key in committed:
            index = int(key[1:])
            assert store.get(key) == make_result(cycles=index), \
                f"committed entry {key} lost by the crash"
        # Keys beyond the reported ones are either commits the parent
        # never got to read (whole, correct) or the single in-flight
        # write the kill interrupted (evicted on read, never silently
        # wrong).  "At most one recompute" = at most one unreadable.
        extra = sorted(set(store.keys()) - set(committed))
        unreadable = 0
        for key in extra:
            value = store.get(key)
            if value is None:
                unreadable += 1
            else:
                assert value == make_result(cycles=int(key[1:]))
        assert unreadable <= 1

"""Tests for durability profiles and the retry policy
(repro.db.resilience)."""

import os
import sqlite3

import pytest

from repro.db.connection import Database
from repro.db.resilience import (
    DURABLE,
    EPHEMERAL,
    PARANOID,
    PROFILES,
    RetryPolicy,
    is_transient,
    resolve_profile,
)
from repro.errors import StorageError
from repro.obs.observer import Observer


class TestProfileResolution:
    def test_default_is_ephemeral(self, monkeypatch):
        monkeypatch.delenv("REPRO_DURABILITY", raising=False)
        assert resolve_profile(None) is EPHEMERAL

    def test_by_name(self):
        assert resolve_profile("durable") is DURABLE
        assert resolve_profile("PARANOID") is PARANOID

    def test_profile_object_passes_through(self):
        assert resolve_profile(DURABLE) is DURABLE

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABILITY", "durable")
        assert resolve_profile(None) is DURABLE

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABILITY", "durable")
        assert resolve_profile("paranoid") is PARANOID

    def test_unknown_name_raises(self):
        with pytest.raises(StorageError) as excinfo:
            resolve_profile("indestructible")
        assert "indestructible" in str(excinfo.value)

    def test_registry_is_complete(self):
        assert set(PROFILES) == {"ephemeral", "durable", "paranoid"}


class TestProfilePragmas:
    def test_ephemeral_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_DURABILITY", raising=False)
        with Database() as db:
            assert db.durability == "ephemeral"
            assert db.query_value("PRAGMA journal_mode") == "memory"
            assert db.query_value("PRAGMA synchronous") == 0  # OFF

    def test_durable_file_backed(self, tmp_path):
        with Database(tmp_path / "d.db", durability="durable") as db:
            assert db.durability == "durable"
            assert db.query_value("PRAGMA journal_mode") == "wal"
            assert db.query_value("PRAGMA synchronous") == 1  # NORMAL
            assert db.query_value("PRAGMA busy_timeout") == 5000
            assert db.query_value("PRAGMA foreign_keys") == 1

    def test_paranoid_file_backed(self, tmp_path):
        with Database(tmp_path / "p.db", durability="paranoid") as db:
            assert db.query_value("PRAGMA journal_mode") == "wal"
            assert db.query_value("PRAGMA synchronous") == 2  # FULL
            assert db.query_value("PRAGMA busy_timeout") == 10000

    def test_env_var_selects_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DURABILITY", "durable")
        with Database(tmp_path / "e.db") as db:
            assert db.durability == "durable"
            assert db.query_value("PRAGMA journal_mode") == "wal"

    def test_store_passes_durability_through(self, tmp_path):
        from repro.core.store import RDFStore

        with RDFStore(tmp_path / "s.db", durability="durable") as store:
            assert store.database.durability == "durable"
            store.create_model("m")

    def test_opener_of_a_held_wal_file_keeps_wal(self, tmp_path,
                                                  monkeypatch):
        # Leaving WAL needs the file to itself; an ephemeral opener
        # used to fail with "database is locked" while a durable
        # connection held it.
        monkeypatch.delenv("REPRO_DURABILITY", raising=False)
        path = tmp_path / "held.db"
        with Database(path, durability="durable") as held:
            held.execute("CREATE TABLE t (a INTEGER)")
            with Database(path) as other:
                assert other.durability == "ephemeral"
                assert other.query_value("PRAGMA journal_mode") == "wal"
                other.execute("INSERT INTO t VALUES (1)")
            assert held.query_value("SELECT a FROM t") == 1

    def test_pragma_failure_at_open_is_a_storage_error(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a database file " * 100)
        with pytest.raises(StorageError, match="while opening"):
            Database(path)

    def test_durable_close_checkpoints_wal(self, tmp_path):
        path = tmp_path / "w.db"
        with Database(path, durability="durable") as db:
            db.execute("CREATE TABLE t (a INTEGER)")
            db.execute("INSERT INTO t VALUES (1)")
        # After a clean close the WAL is checkpointed and truncated:
        # the main file alone carries the data.
        wal = path.with_name(path.name + "-wal")
        assert not wal.exists() or wal.stat().st_size == 0
        with Database(path, durability="durable") as db:
            assert db.query_value("SELECT a FROM t") == 1


class TestSharedFixtures:
    """Under ``REPRO_DURABILITY`` the shared fixtures are files in the
    profile's journal mode, so a durability run reaches WAL."""

    def test_fixtures_follow_the_profile(self, database, store):
        for db in (database, store.database):
            expected = "memory"
            if os.environ.get("REPRO_DURABILITY"):
                expected = db.profile.journal_mode.lower()
            assert db.query_value("PRAGMA journal_mode") == expected


class TestTransientClassification:
    def test_locked_is_transient(self):
        assert is_transient(sqlite3.OperationalError(
            "database is locked"))

    def test_injected_suffix_still_transient(self):
        assert is_transient(sqlite3.OperationalError(
            "database is locked [injected]"))

    def test_disk_io_is_fatal(self):
        assert not is_transient(sqlite3.OperationalError(
            "disk I/O error"))

    def test_syntax_error_is_fatal(self):
        assert not is_transient(sqlite3.OperationalError(
            'near "SELEC": syntax error'))

    def test_other_exception_types_are_fatal(self):
        assert not is_transient(sqlite3.IntegrityError(
            "database is locked"))  # wrong type, message irrelevant
        assert not is_transient(RuntimeError("database is locked"))


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0,
                             max_delay=0.05, jitter=0.0)
        assert policy.delay_for(1) == pytest.approx(0.01)
        assert policy.delay_for(2) == pytest.approx(0.02)
        assert policy.delay_for(3) == pytest.approx(0.04)
        assert policy.delay_for(4) == pytest.approx(0.05)  # capped
        assert policy.delay_for(10) == pytest.approx(0.05)

    def test_jitter_scales_within_band(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5,
                             rand=lambda: 0.0)
        assert policy.delay_for(1) == pytest.approx(0.05)
        policy = RetryPolicy(base_delay=0.1, jitter=0.5,
                             rand=lambda: 1.0)
        assert policy.delay_for(1) == pytest.approx(0.1)

    def test_transient_retried_until_success(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.001,
                             jitter=0.0, sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_exhausted_raises_original(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                             jitter=0.0, sleep=lambda _d: None)
        calls = {"n": 0}

        def always_locked():
            calls["n"] += 1
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            policy.run(always_locked)
        assert calls["n"] == 3  # bounded: exactly max_attempts calls

    def test_fatal_not_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _d: None)
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise sqlite3.OperationalError("disk I/O error")

        with pytest.raises(sqlite3.OperationalError):
            policy.run(broken)
        assert calls["n"] == 1

    def test_single_attempt_policy_never_retries(self):
        policy = RetryPolicy(max_attempts=1)
        calls = {"n": 0}

        def locked():
            calls["n"] += 1
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            policy.run(locked)
        assert calls["n"] == 1

    def test_retries_reported_to_observer(self):
        observer = Observer()
        policy = RetryPolicy(max_attempts=4, base_delay=0.001,
                             jitter=0.0, sleep=lambda _d: None)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert policy.run(flaky, observer=observer) == "ok"
        metrics = observer.metrics.as_dict()
        assert metrics["counters"]["sql.retries"] == 2
        assert metrics["histograms"]["sql.backoff_seconds"]["count"] == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(jitter=1.5)


class TestParanoidForeignKeyVerification:
    def test_commit_blocked_on_fk_violation(self, tmp_path):
        with Database(tmp_path / "fk.db", durability="paranoid") as db:
            db.executescript(
                "CREATE TABLE parent (id INTEGER PRIMARY KEY);"
                "CREATE TABLE child (pid INTEGER REFERENCES parent (id));")
            # Sneak a dangling reference in behind the engine's back.
            db.execute("PRAGMA foreign_keys = OFF")
            with pytest.raises(StorageError) as excinfo:
                with db.transaction():
                    db.execute("INSERT INTO child VALUES (999)")
            assert "foreign_key_check" in str(excinfo.value)
            assert db.row_count("child") == 0  # rolled back

    def test_clean_commit_passes(self, tmp_path):
        with Database(tmp_path / "ok.db", durability="paranoid") as db:
            db.executescript(
                "CREATE TABLE parent (id INTEGER PRIMARY KEY);"
                "CREATE TABLE child (pid INTEGER REFERENCES parent (id));")
            with db.transaction():
                db.execute("INSERT INTO parent VALUES (1)")
                db.execute("INSERT INTO child VALUES (1)")
            assert db.row_count("child") == 1


class TestParanoidForeignKeyGuardCost:
    def test_commit_path_runs_no_whole_file_check(self, tmp_path):
        observer = Observer()
        with Database(tmp_path / "fk.db", durability="paranoid",
                      observer=observer) as db:
            db.executescript(
                "CREATE TABLE parent (id INTEGER PRIMARY KEY);"
                "CREATE TABLE child (pid INTEGER REFERENCES parent (id));")
            for i in range(3):
                with db.transaction():
                    db.execute("INSERT INTO parent VALUES (?)", (i,))
                    db.execute("INSERT INTO child VALUES (?)", (i,))
            shapes = [s.statement for s in observer.sql.statements()]
        assert any("PRAGMA foreign_keys" in s for s in shapes)
        assert not any("foreign_key_check" in s for s in shapes)

"""The :class:`Database` engine wrapper.

One :class:`Database` instance stands for one Oracle database instance in
the paper: it hosts the central MDSYS-like RDF schema, every user
application table, the Jena2 baseline tables, the NDM catalog, rulebases,
and rules indexes.  It wraps a single ``sqlite3`` connection (file-backed
or in-memory) and adds:

* explicit transaction scoping via :meth:`transaction`, with true
  SAVEPOINT-based nesting — an inner scope that fails rolls back only
  its own work;
* named durability profiles (``ephemeral``/``durable``/``paranoid``,
  see :mod:`repro.db.resilience`) selecting journal mode, fsync
  behaviour, and busy timeout;
* a retry/backoff policy turning transient ``database is locked``
  errors into bounded retries instead of raw failures;
* optional deterministic fault injection
  (:mod:`repro.db.faults`) hooked in front of every statement;
* small query helpers (:meth:`query_one`, :meth:`query_value`,
  :meth:`query_all`) so call sites stay readable;
* schema introspection used by views, indexes, and storage accounting.

SQLite is a faithful stand-in here: every schema object the paper uses
(tables, views, sequences via AUTOINCREMENT-style counters, expression
indexes) maps one-to-one.
"""

from __future__ import annotations

import re
import sqlite3
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.db.resilience import (
    DurabilityProfile,
    RetryPolicy,
    resolve_profile,
)
from repro.errors import (
    DeadlineExceededError,
    ReadOnlyConnectionError,
    StorageError,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.reqctx import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.faults import FaultInjector

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*$")

#: Leading SQL keywords that mutate the database; a read-only
#: connection rejects these up front with a clear error instead of
#: surfacing sqlite's raw "attempt to write a readonly database".
_WRITE_VERBS = frozenset({
    "insert", "update", "delete", "replace", "create", "drop",
    "alter", "vacuum", "reindex", "analyze"})


def _leading_verb(sql: str) -> str:
    parts = sql.split(None, 1)
    return parts[0].lower() if parts else ""


def quote_identifier(name: str) -> str:
    """Quote ``name`` for use as an SQL identifier.

    The central-schema tables use Oracle's ``$`` suffix (``rdf_link$``)
    which SQLite accepts when quoted.
    """
    if not _IDENTIFIER_RE.match(name):
        raise StorageError(f"illegal SQL identifier: {name!r}")
    return f'"{name}"'


class DeadlineGuard:
    """Book-keeping for one active :meth:`Database.deadline_scope`.

    ``interrupted`` flips to True the moment the progress-handler
    watchdog aborts a statement; the resulting
    :class:`~repro.errors.DeadlineExceededError` carries
    ``sql_interrupted``, so callers can distinguish "SQL was cut off
    mid-flight" (count it under ``sql.interrupts``) from "the deadline
    expired between statements".
    """

    __slots__ = ("deadline", "interrupted")

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self.interrupted = False


#: SQLite VM instructions between watchdog checks: small enough to
#: notice an expired deadline within well under a millisecond of real
#: work, large enough that the check itself is noise (<1% on the
#: micro-query benchmarks).
PROGRESS_HANDLER_INSTRUCTIONS = 2000


class Database:
    """A single database instance hosting the whole RDF universe.

    :param path: filesystem path for the database file, or ``":memory:"``
        (the default) for an in-memory instance — ideal for tests and
        benchmarks.
    :param observer: an :class:`~repro.obs.observer.Observer` collecting
        SQL timings, spans, and metrics for this connection; default is
        the shared no-op (observability off, near-zero overhead).
    :param durability: a profile name (``ephemeral``/``durable``/
        ``paranoid``), a :class:`~repro.db.resilience.DurabilityProfile`,
        or ``None`` to defer to the ``REPRO_DURABILITY`` environment
        variable (default: ``ephemeral``, the historical behaviour).
        WAL profiles only take effect for file-backed databases —
        SQLite silently keeps in-memory journaling for ``:memory:``.
    :param retry: the transient-error retry policy; default is the
        standard bounded-backoff :class:`~repro.db.resilience.RetryPolicy`.
    :param faults: an optional :class:`~repro.db.faults.FaultInjector`
        consulted before every statement (tests only).
    :param read_only: open the file with the ``mode=ro`` URI flag.
        Any write raises :class:`~repro.errors.ReadOnlyConnectionError`
        with a pointer at the writer queue instead of a raw sqlite
        error.  Requires a file-backed database (the connection pool
        uses this for its readers).
    :param check_same_thread: passed to ``sqlite3.connect``.  The
        default (True) keeps sqlite's own thread check; the connection
        pool opens readers with False because a pooled connection is
        handed to one handler thread at a time.
    """

    def __init__(self, path: str | Path = ":memory:",
                 observer: Observer | None = None,
                 durability: str | DurabilityProfile | None = None,
                 retry: RetryPolicy | None = None,
                 faults: "FaultInjector | None" = None,
                 read_only: bool = False,
                 check_same_thread: bool = True) -> None:
        self._path = str(path)
        self._profile = resolve_profile(durability)
        self._retry = retry if retry is not None else RetryPolicy()
        self._faults = faults
        self._read_only = read_only
        if read_only:
            if self._path == ":memory:":
                raise StorageError(
                    "read-only connections need a file-backed "
                    "database; :memory: has no second connection to "
                    "share data with")
            import urllib.parse

            quoted = urllib.parse.quote(
                str(Path(self._path).absolute()), safe="/")
            try:
                self._connection = sqlite3.connect(
                    f"file:{quoted}?mode=ro", uri=True,
                    check_same_thread=check_same_thread)
            except sqlite3.Error as exc:
                raise StorageError(
                    f"{exc} while opening {self._path} read-only"
                ) from exc
        else:
            self._connection = sqlite3.connect(
                self._path, check_same_thread=check_same_thread)
        self._connection.row_factory = sqlite3.Row
        self._data_version = 0
        # The store manages transactions explicitly via transaction().
        self._connection.isolation_level = None
        self._in_transaction = 0
        self._rollback_listeners: list[weakref.WeakMethod] = []
        self._closed = False
        self._deadline_guard: DeadlineGuard | None = None
        self._observer = NULL_OBSERVER
        cursor = self._connection.cursor()
        try:
            current = "" if read_only else cursor.execute(
                "PRAGMA journal_mode").fetchone()[0]
            for pragma in self._profile.pragmas(read_only, current):
                cursor.execute(pragma)
            # Caches start empty at open, so the file as it is now is
            # what poll_data_version() compares later commits against.
            self._seen_data_version = cursor.execute(
                "PRAGMA data_version").fetchone()[0]
        except sqlite3.Error as exc:
            self._connection.close()
            raise StorageError(
                f"{exc} while opening {self._path} with the "
                f"{self._profile.name} profile") from exc
        cursor.close()
        if observer is not None:
            self.set_observer(observer)

    @property
    def path(self) -> str:
        return self._path

    @property
    def profile(self) -> DurabilityProfile:
        """This connection's durability profile."""
        return self._profile

    @property
    def durability(self) -> str:
        """The durability profile's name (``ephemeral``/``durable``/
        ``paranoid``)."""
        return self._profile.name

    @property
    def retry_policy(self) -> RetryPolicy:
        """The transient-error retry policy."""
        return self._retry

    @property
    def fault_injector(self) -> "FaultInjector | None":
        """The attached fault injector, if any (tests only)."""
        return self._faults

    def set_fault_injector(self,
                           faults: "FaultInjector | None") -> None:
        """Attach (or with ``None`` detach) a fault injector."""
        self._faults = faults

    @property
    def connection(self) -> sqlite3.Connection:
        """The raw sqlite3 connection (escape hatch for power users)."""
        return self._connection

    @property
    def observer(self) -> Observer:
        """This connection's observer (the shared no-op when disabled)."""
        return self._observer

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def read_only(self) -> bool:
        """True when this connection was opened with ``mode=ro``."""
        return self._read_only

    @property
    def data_version(self) -> int:
        """Monotonic counter of triple-visible data changes.

        Every write that can change what an SDO_RDF_MATCH query sees —
        link inserts/deletes, bulk-load merges, model create/drop,
        rules-index materialisation — bumps this counter through
        :meth:`bump_data_version`.  The match planner's statistics and
        plan caches are keyed on it: a stale version means re-plan.
        Over-bumping (e.g. for a rolled-back write) only costs a cache
        miss; the counter must never under-report a change.
        """
        return self._data_version

    def bump_data_version(self) -> None:
        """Record a triple-visible data change (see :attr:`data_version`)."""
        self._data_version += 1

    def poll_data_version(self) -> bool:
        """Catch up with commits made through *other* connections.

        SQLite's ``PRAGMA data_version`` moves when another connection
        (a pooled writer, a second store, another process) commits to
        the file.  When it has moved since the last poll, this bumps
        :attr:`data_version` — every cache keyed on it goes stale — and
        returns True so the caller can flush the caches that are not
        keyed on it.  One PRAGMA on the raw connection: the pool polls
        at every lease, ``sdo_rdf_match`` on every call.
        """
        try:
            current = self._connection.execute(
                "PRAGMA data_version").fetchone()[0]
        except sqlite3.Error as exc:
            self._require_open()
            raise self._wrap_sql_error(
                exc, "while polling PRAGMA data_version") from exc
        if current == self._seen_data_version:
            return False
        self._seen_data_version = current
        self._data_version += 1
        return True

    def add_rollback_listener(self, callback: Callable[[], None]) -> None:
        """Call the bound method ``callback`` after every rollback.

        A rollback (``ROLLBACK``, or ``ROLLBACK TO`` a savepoint) may
        discard rows whose ids a cache has already handed out; SQLite
        then hands the same ids to new rows.  Caches of such ids
        register here to drop them.  Held weakly: registering does not
        keep the listener's owner alive.
        """
        listeners = [ref for ref in self._rollback_listeners
                     if ref() is not None]
        listeners.append(weakref.WeakMethod(callback))
        self._rollback_listeners = listeners

    def _rolled_back(self) -> None:
        for ref in self._rollback_listeners:
            callback = ref()
            if callback is not None:
                callback()

    def set_observer(self, observer: Observer) -> None:
        """Attach (or detach, with :data:`NULL_OBSERVER`) an observer.

        An enabled observer installs the sqlite3 trace callback so raw
        engine statements are counted; swapping back to the no-op
        removes it.
        """
        if self._observer.enabled and self._observer.sql is not None \
                and not self._closed:
            self._observer.sql.detach(self._connection)
        self._observer = observer
        if observer.enabled and observer.sql is not None \
                and not self._closed:
            observer.sql.attach(self._connection)

    def close(self) -> None:
        """Close the underlying connection (idempotent).

        WAL profiles checkpoint first (best effort) so the main
        database file stands alone after a clean shutdown.
        """
        if self._closed:
            return
        if self._profile.checkpoint_on_close and self._path != ":memory:":
            try:
                self._connection.execute(
                    "PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
        self._closed = True
        try:
            self._connection.close()
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            raise StorageError(f"{exc} while closing {self._path}") \
                from exc

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"database connection to {self._path} is closed")

    def _guard_write(self, sql: str) -> None:
        """Reject obvious writes on a read-only connection up front."""
        if _leading_verb(sql) in _WRITE_VERBS:
            raise ReadOnlyConnectionError(
                f"connection to {self._path} is read-only (mode=ro); "
                f"refusing {_leading_verb(sql).upper()} — route writes "
                "through the writer queue (repro.db.pool.WriterQueue)")

    def _wrap_sql_error(self, exc: sqlite3.Error,
                        context: str) -> StorageError:
        """Map a sqlite error to the right StorageError subclass."""
        message = str(exc).lower()
        if "readonly database" in message:
            return ReadOnlyConnectionError(
                f"{exc} — connection to {self._path} is read-only "
                "(mode=ro); route writes through the writer queue "
                f"({context})")
        guard = self._deadline_guard
        if "interrupt" in message and guard is not None \
                and guard.interrupted:
            error = DeadlineExceededError(
                f"SQL aborted after the request deadline expired "
                f"(budget {guard.deadline.budget * 1000:.0f} ms) "
                f"{context}")
            error.sql_interrupted = True
            return error
        return StorageError(f"{exc} {context}")

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    def _run_statement(self, sql: str,
                       parameters: Sequence[Any]) -> sqlite3.Cursor:
        """One statement through fault injection and the retry policy."""
        if self._faults is None and self._retry.max_attempts <= 1:
            return self._connection.execute(sql, parameters)

        def attempt() -> sqlite3.Cursor:
            if self._faults is not None:
                self._faults.on_statement(sql, site="statement")
            return self._connection.execute(sql, parameters)

        return self._retry.run(attempt, observer=self._observer)

    def execute(self, sql: str,
                parameters: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Execute one statement and return its cursor.

        Transient lock errors are retried per the connection's
        :class:`~repro.db.resilience.RetryPolicy`; everything else —
        and exhausted retries — raises :class:`StorageError`.
        """
        if self._read_only:
            self._guard_write(sql)
        if self._observer.enabled:
            return self._execute_observed(sql, parameters)
        try:
            return self._run_statement(sql, parameters)
        except sqlite3.Error as exc:
            self._require_open()
            raise self._wrap_sql_error(
                exc, f"while executing: {sql}") from exc

    def _execute_observed(self, sql: str,
                          parameters: Sequence[Any]) -> sqlite3.Cursor:
        """The instrumented twin of :meth:`execute`.

        Times the statement, aggregates it under its normalized shape,
        and (for slow statements) captures its query plan.  Result rows
        fetched later are credited by the ``query_*`` helpers.
        """
        start = time.perf_counter()
        try:
            cursor = self._run_statement(sql, parameters)
        except sqlite3.Error as exc:
            self._require_open()
            self._observer.counter("sql.errors").inc()
            raise self._wrap_sql_error(
                exc, f"while executing: {sql}") from exc
        duration = time.perf_counter() - start
        self._observer.sql.record(
            sql, duration, rows=max(cursor.rowcount, 0),
            connection=self._connection, parameters=parameters)
        return cursor

    def executemany(self, sql: str,
                    parameter_rows: Iterable[Sequence[Any]]
                    ) -> sqlite3.Cursor:
        """Execute one statement for many parameter rows."""
        if self._read_only:
            self._guard_write(sql)
        observed = self._observer.enabled
        start = time.perf_counter() if observed else 0.0
        retryable = self._faults is not None \
            or self._retry.max_attempts > 1
        if retryable and not isinstance(parameter_rows, (list, tuple)):
            # A retry must replay every row; generators cannot rewind.
            parameter_rows = list(parameter_rows)

        def attempt() -> sqlite3.Cursor:
            if self._faults is not None:
                self._faults.on_statement(sql, site="executemany")
            return self._connection.executemany(sql, parameter_rows)

        try:
            if retryable:
                cursor = self._retry.run(attempt,
                                         observer=self._observer)
            else:
                cursor = self._connection.executemany(sql,
                                                      parameter_rows)
        except sqlite3.Error as exc:
            self._require_open()
            if observed:
                self._observer.counter("sql.errors").inc()
            raise self._wrap_sql_error(
                exc, f"while executing: {sql}") from exc
        if observed:
            self._observer.sql.record(
                sql, time.perf_counter() - start,
                rows=max(cursor.rowcount, 0))
        return cursor

    def executescript(self, script: str) -> None:
        """Execute a multi-statement DDL script.

        ``sqlite3`` issues an implicit COMMIT before running a script,
        which would silently break an open :meth:`transaction` scope —
        so calling this inside one raises :class:`StorageError`
        instead.  Scripts are timed and error-counted by the observer
        like every other statement.
        """
        if self._in_transaction:
            raise StorageError(
                "executescript() inside a transaction() scope would "
                "implicitly commit the open transaction; run the "
                "script outside the scope or use execute() per "
                "statement")
        if self._read_only:
            raise ReadOnlyConnectionError(
                f"connection to {self._path} is read-only (mode=ro); "
                "refusing executescript — DDL belongs to the writer")
        observed = self._observer.enabled
        start = time.perf_counter() if observed else 0.0

        def attempt() -> None:
            if self._faults is not None:
                self._faults.on_statement(script, site="executescript")
            self._connection.executescript(script)

        try:
            self._retry.run(attempt, observer=self._observer)
        except sqlite3.Error as exc:
            self._require_open()
            if observed:
                self._observer.counter("sql.errors").inc()
            raise self._wrap_sql_error(
                exc, "while executing script") from exc
        if observed:
            self._observer.sql.record(
                script, time.perf_counter() - start, rows=0)

    # ------------------------------------------------------------------
    # query helpers
    # ------------------------------------------------------------------

    def query_all(self, sql: str,
                  parameters: Sequence[Any] = ()) -> list[sqlite3.Row]:
        """All rows of a query."""
        cursor = self.execute(sql, parameters)
        try:
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            # Rows stream lazily: the deadline watchdog (and any other
            # mid-flight abort) fires here, not in execute().
            self._require_open()
            raise self._wrap_sql_error(
                exc, f"while fetching: {sql}") from exc
        if self._observer.enabled:
            self._observer.sql.add_rows(sql, len(rows))
        return rows

    def query_one(self, sql: str,
                  parameters: Sequence[Any] = ()) -> sqlite3.Row | None:
        """The first row of a query, or None."""
        cursor = self.execute(sql, parameters)
        try:
            row = cursor.fetchone()
        except sqlite3.Error as exc:
            self._require_open()
            raise self._wrap_sql_error(
                exc, f"while fetching: {sql}") from exc
        if row is not None and self._observer.enabled:
            self._observer.sql.add_rows(sql, 1)
        return row

    def query_value(self, sql: str,
                    parameters: Sequence[Any] = (),
                    default: Any = None) -> Any:
        """The first column of the first row, or ``default``."""
        row = self.query_one(sql, parameters)
        if row is None:
            return default
        return row[0]

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """A transaction scope with SAVEPOINT-based nesting.

        The outermost scope is a real transaction: it commits on
        normal exit and rolls back when it raises.  A nested scope
        opens a SAVEPOINT, so an inner failure rolls back only the
        inner scope's work — callers that catch the inner exception
        keep the outer scope's writes (an uncaught exception still
        unwinds every scope and rolls back everything).  Either kind of
        rollback notifies the rollback listeners
        (:meth:`add_rollback_listener`).

        Under the ``paranoid`` profile the outermost scope first reads
        ``PRAGMA foreign_keys`` and raises :class:`StorageError`,
        beginning nothing, when enforcement is off.  SQLite ignores
        that pragma inside a transaction, so every statement up to
        COMMIT is checked as it runs.
        """
        if self._in_transaction:
            self._in_transaction += 1
            name = f"repro_sp_{self._in_transaction}"
            self.execute(f"SAVEPOINT {name}")
            try:
                yield
            except BaseException:
                # An interrupt() mid-statement may have rolled the
                # whole transaction back already; rolling back a
                # savepoint that no longer exists would raise and mask
                # the original error.
                try:
                    if self._connection.in_transaction:
                        self.execute(f"ROLLBACK TO {name}")
                        self.execute(f"RELEASE {name}")
                finally:
                    self._rolled_back()
                raise
            else:
                self.execute(f"RELEASE {name}")
            finally:
                self._in_transaction -= 1
            return
        if (self._profile.verify_foreign_keys
                and not self.query_value("PRAGMA foreign_keys")):
            raise StorageError(
                "PRAGMA foreign_keys is OFF: the paranoid profile "
                "refuses a transaction SQLite would not check; run "
                "`repro doctor` for a whole-file foreign_key_check")
        self._in_transaction = 1
        self.execute("BEGIN")
        try:
            yield
        except BaseException:
            self._in_transaction = 0
            # The engine rolls back on its own when a statement is
            # interrupted mid-write; a second explicit ROLLBACK would
            # raise "no transaction is active" and mask the cause.
            try:
                if self._connection.in_transaction:
                    self.execute("ROLLBACK")
            finally:
                self._rolled_back()
            raise
        else:
            self._in_transaction = 0
            self.execute("COMMIT")

    # ------------------------------------------------------------------
    # cooperative cancellation
    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Abort the connection's in-flight statement, if any.

        Thread-safe (the one sqlite3 call that is): another thread may
        interrupt a long-running query on this connection.  The
        aborted statement raises ``OperationalError: interrupted``,
        which an active :meth:`deadline_scope` maps to
        :class:`~repro.errors.DeadlineExceededError`.
        """
        if not self._closed:
            self._connection.interrupt()

    @contextmanager
    def deadline_scope(self,
                       deadline: Deadline | None
                       ) -> Iterator[DeadlineGuard | None]:
        """Bound every statement in the scope by ``deadline``.

        Installs a progress-handler watchdog that checks the deadline
        every :data:`PROGRESS_HANDLER_INSTRUCTIONS` SQLite VM
        instructions and aborts the in-flight statement once it
        expires — the cooperative half of
        ``sqlite3.Connection.interrupt()``: the engine stops at a safe
        point, the open transaction rolls back normally, and the
        connection remains usable.  The aborted statement surfaces as
        :class:`~repro.errors.DeadlineExceededError` with
        ``sql_interrupted`` set (callers count ``sql.interrupts`` from
        it); the yielded :class:`DeadlineGuard`'s ``interrupted`` flag
        says the same to code still inside the scope.

        ``deadline=None`` yields ``None`` and installs nothing, so
        call sites need no branching for deadline-free requests.
        Scopes do not nest (one progress handler per connection); the
        serving layer opens exactly one per request.
        """
        if deadline is None:
            yield None
            return
        if self._deadline_guard is not None:
            raise StorageError(
                "deadline_scope does not nest: a scope is already "
                f"active on the connection to {self._path}")
        guard = DeadlineGuard(deadline)
        self._deadline_guard = guard

        def watchdog() -> int:
            if guard.interrupted:
                # Fire once: the aborted statement is unwinding and the
                # cleanup that follows (ROLLBACK) must be allowed to
                # run, or the rollback error would mask the deadline.
                return 0
            if guard.deadline.expired:
                guard.interrupted = True
                return 1  # non-zero aborts the statement
            return 0

        self._connection.set_progress_handler(
            watchdog, PROGRESS_HANDLER_INSTRUCTIONS)
        try:
            yield guard
        finally:
            self._deadline_guard = None
            if not self._closed:
                self._connection.set_progress_handler(None, 0)

    # ------------------------------------------------------------------
    # schema introspection
    # ------------------------------------------------------------------

    def table_exists(self, name: str) -> bool:
        """True when a table or view called ``name`` exists."""
        return self.query_one(
            "SELECT 1 FROM sqlite_master "
            "WHERE type IN ('table', 'view') AND name = ?",
            (name,)) is not None

    def index_exists(self, name: str) -> bool:
        """True when an index called ``name`` exists."""
        return self.query_one(
            "SELECT 1 FROM sqlite_master WHERE type = 'index' AND name = ?",
            (name,)) is not None

    def drop_table(self, name: str) -> None:
        """Drop a table if it exists."""
        self.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")

    def drop_view(self, name: str) -> None:
        """Drop a view if it exists."""
        self.execute(f"DROP VIEW IF EXISTS {quote_identifier(name)}")

    def table_columns(self, name: str) -> list[str]:
        """Column names of ``name`` in declaration order."""
        rows = self.query_all(
            f"PRAGMA table_info({quote_identifier(name)})")
        if not rows:
            raise StorageError(f"no such table: {name}")
        return [row["name"] for row in rows]

    def row_count(self, name: str) -> int:
        """Number of rows in table ``name``."""
        return int(self.query_value(
            f"SELECT COUNT(*) FROM {quote_identifier(name)}", default=0))

    def analyze(self) -> None:
        """Refresh the query planner's statistics (SQL ``ANALYZE``).

        Worth running after bulk loads so index selectivity estimates
        match the data; the bulk loader calls this automatically.
        """
        self.execute("ANALYZE")

"""Concurrent access primitives: a read pool and a single-writer queue.

SQLite's concurrency model under WAL is *N readers + 1 writer*: any
number of connections may read a consistent snapshot while one
connection writes.  The serving layer (:mod:`repro.server`) maps that
model onto two primitives kept here, next to the engine wrapper:

:class:`ConnectionPool`
    A bounded pool of **read-only** (``mode=ro``) file connections.
    Each connection is opened with ``check_same_thread=False`` —
    safe because the pool hands a connection to exactly one thread at
    a time — and carries an optional *session* object (the server
    wraps each in an :class:`~repro.core.store.RDFStore`).  On every
    acquire the pool polls the connection
    (:meth:`~repro.db.connection.Database.poll_data_version`): when
    the writer (or an external process) committed since this
    connection last served a request, its Python-level
    :attr:`~repro.db.connection.Database.data_version` counter is
    bumped — invalidating the plan cache and planner statistics keyed
    on it — and the caller's ``invalidate`` hook runs (the server
    flushes the term and model caches there).  An exhausted pool raises
    :class:`~repro.errors.PoolTimeoutError`, which the HTTP layer
    maps to 429 backpressure.

:class:`WriterQueue`
    A dedicated writer thread owning the **only** writable connection.
    Mutations are submitted as callables and return
    :class:`concurrent.futures.Future` objects; jobs run strictly in
    submission order, so there is never writer/writer contention and
    ``database is locked`` retries are reserved for external
    processes.  The store is built *inside* the thread (via a
    factory), satisfying sqlite's same-thread check without switching
    it off for the write path.  A bounded job queue gives natural
    backpressure: a full queue raises :class:`PoolTimeoutError`
    instead of buffering without limit.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import sqlite3

from repro.db.connection import Database
from repro.db.faults import (
    POINT_POOL_ACQUIRE,
    POINT_WRITER_JOB,
    FaultInjector,
)
from repro.errors import (
    DeadlineExceededError,
    PoolTimeoutError,
    StorageError,
    WriterShutdownError,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.reqctx import Deadline, RequestTrace, current_trace


@dataclass(eq=False)
class PooledConnection:
    """One pool slot: the connection plus its session."""

    database: Database
    #: What ``wrap`` returned for this connection (the server puts an
    #: RDFStore here); the database itself when no wrap was given.
    session: Any
    #: Acquire count (introspection only).
    leases: int = 0


class ConnectionPool:
    """A bounded pool of read-only connections to one database file.

    :param path: the database file (must exist — readers cannot create
        it; start the writer first).
    :param size: maximum number of pooled connections.  Connections
        are opened lazily, so an idle server holds no file handles
        beyond the first request's.
    :param durability: profile name forwarded to each connection
        (journal-mode pragma is skipped on read-only connections).
    :param timeout: default seconds :meth:`acquire` waits for a free
        connection before raising :class:`PoolTimeoutError`.
    :param observer: a (thread-safe) observer shared by every pooled
        connection; metrics from all readers aggregate in one place.
    :param wrap: optional callable building a per-connection session
        object from the :class:`Database` (the server passes
        ``RDFStore``).  Called once per connection, at creation.
    :param invalidate: optional callable run on a session whenever the
        acquire-time snoop detects that another connection committed
        (the server flushes term caches here).  The pool always bumps
        the connection's own ``data_version`` counter first.
    :param faults: optional :class:`~repro.db.faults.FaultInjector`
        shared by every pooled connection (slow-SQL chaos) and
        consulted at the ``pool.acquire`` fault point — a ``slow``
        fault delays the lease, a ``lock`` fault simulates pool
        exhaustion as :class:`PoolTimeoutError`.
    """

    def __init__(self, path: str | Path, size: int = 4,
                 durability: str | None = None,
                 timeout: float = 5.0,
                 observer: Observer = NULL_OBSERVER,
                 wrap: Callable[[Database], Any] | None = None,
                 invalidate: Callable[[Any], None] | None = None,
                 faults: FaultInjector | None = None) -> None:
        if size < 1:
            raise StorageError("ConnectionPool needs size >= 1")
        self._path = str(path)
        self._size = size
        self._durability = durability
        self._timeout = timeout
        self._observer = observer
        self._wrap = wrap
        self._invalidate = invalidate
        self._faults = faults
        # LIFO: the most recently used connection has the warmest
        # page cache and term caches.
        self._idle: queue.LifoQueue[PooledConnection] = queue.LifoQueue()
        self._lock = threading.Lock()
        self._created = 0
        self._in_use = 0
        self._closed = False
        self._stats = {
            "leases": 0, "timeouts": 0, "invalidations": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Maximum number of pooled connections."""
        return self._size

    @property
    def in_use(self) -> int:
        """Connections out on lease right now (saturation gauge)."""
        with self._lock:
            return self._in_use

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every idle connection and refuse new leases.

        Connections out on lease are closed as they come back.
        """
        self._closed = True
        while True:
            try:
                entry = self._idle.get_nowait()
            except queue.Empty:
                return
            entry.database.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # acquire / release
    # ------------------------------------------------------------------

    def _create(self) -> PooledConnection:
        database = Database(
            self._path, durability=self._durability,
            observer=self._observer if self._observer.enabled else None,
            faults=self._faults,
            read_only=True, check_same_thread=False)
        session = self._wrap(database) if self._wrap else database
        return PooledConnection(database=database, session=session)

    def _snoop(self, entry: PooledConnection) -> bool:
        """Detect commits by other connections since the last lease."""
        if not entry.database.poll_data_version():
            return False
        if self._invalidate is not None:
            self._invalidate(entry.session)
        with self._lock:
            self._stats["invalidations"] += 1
        return True

    def acquire(self, timeout: float | None = None,
                deadline: Deadline | None = None) -> PooledConnection:
        """Take a connection, waiting up to ``timeout`` seconds.

        Raises :class:`PoolTimeoutError` when every connection stays
        leased for the whole wait — the caller should shed load (the
        HTTP layer answers 429).

        The wait is additionally bounded by the request's
        :class:`~repro.obs.reqctx.Deadline` — passed explicitly or
        found on the active request trace: an already-expired deadline
        raises :class:`~repro.errors.DeadlineExceededError` without
        waiting at all, and a deadline tighter than ``timeout`` caps
        the wait, so a request that cannot possibly be served in
        budget never parks on the pool.

        The time spent waiting for a free connection is recorded on
        the active request trace (``pool_wait_seconds``) and, when an
        observer is attached, as a ``pool.acquire`` span — so a slow
        request shows whether it queued behind the pool.
        """
        if self._closed:
            raise StorageError(
                f"connection pool for {self._path} is closed")
        request = current_trace()
        if deadline is None and request is not None:
            deadline = request.deadline
        wait = self._timeout if timeout is None else timeout
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired before the pool "
                    f"acquire (budget {deadline.budget * 1000:.0f} "
                    "ms)")
            wait = deadline.bound(wait)
        if self._faults is not None:
            try:
                self._faults.on_point(POINT_POOL_ACQUIRE)
            except sqlite3.OperationalError as exc:
                with self._lock:
                    self._stats["timeouts"] += 1
                raise PoolTimeoutError(
                    f"{exc} at pool.acquire for {self._path}"
                ) from None
        with self._observer.span("pool.acquire") as span:
            start = time.perf_counter()
            try:
                entry = self._idle.get_nowait()
            except queue.Empty:
                try:
                    entry = self._acquire_slow(wait)
                except PoolTimeoutError:
                    if deadline is not None and deadline.expired:
                        # The deadline, not the pool timeout, was the
                        # binding constraint: surface it as 504 budget
                        # exhaustion, not 429 backpressure.
                        raise DeadlineExceededError(
                            "request deadline expired while waiting "
                            "for a pooled connection (budget "
                            f"{deadline.budget * 1000:.0f} ms, pool "
                            f"size {self._size}, all leased)"
                        ) from None
                    raise
            waited = time.perf_counter() - start
            invalidated = self._snoop(entry)
            span.set("wait_seconds", round(waited, 6))
            if invalidated:
                span.set("invalidated", True)
        if request is not None:
            request.annotate_add("pool_wait_seconds", waited)
        entry.leases += 1
        with self._lock:
            self._in_use += 1
            self._stats["leases"] += 1
        return entry

    def _acquire_slow(self, wait: float) -> PooledConnection:
        """No idle connection: grow the pool or wait for a return."""
        with self._lock:
            can_create = self._created < self._size
            if can_create:
                self._created += 1
        if can_create:
            try:
                return self._create()
            except BaseException:
                with self._lock:
                    self._created -= 1
                raise
        try:
            return self._idle.get(timeout=wait)
        except queue.Empty:
            with self._lock:
                self._stats["timeouts"] += 1
            raise PoolTimeoutError(
                f"no read connection free after {wait:.3g}s (pool "
                f"size {self._size}, all leased) for {self._path}"
            ) from None

    def release(self, entry: PooledConnection) -> None:
        """Return a leased connection to the pool."""
        with self._lock:
            self._in_use -= 1
        if self._closed:
            entry.database.close()
            return
        self._idle.put(entry)

    @contextmanager
    def lease(self, timeout: float | None = None) -> Iterator[Any]:
        """Scoped acquire: yields the connection's *session* object."""
        entry = self.acquire(timeout)
        try:
            yield entry.session
        finally:
            self.release(entry)

    def stats(self) -> dict[str, Any]:
        """Pool gauges and counters (for ``/stats`` and tests)."""
        with self._lock:
            return {
                "path": self._path,
                "size": self._size,
                "created": self._created,
                "in_use": self._in_use,
                "idle": self._idle.qsize(),
                **self._stats,
            }


# ----------------------------------------------------------------------
# writer queue
# ----------------------------------------------------------------------

#: A mutation job: receives the writer's session, returns the result
#: delivered through the Future.
WriteJob = Callable[[Any], Any]


@dataclass(eq=False)
class _QueuedJob:
    job: WriteJob
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    # The submitter's context rides along so the writer thread executes
    # the job *inside* it: spans opened there carry the submitting
    # request's id, and the request trace collects them.
    context: contextvars.Context = field(
        default_factory=contextvars.copy_context)
    trace: RequestTrace | None = field(default_factory=current_trace)


_STOP = object()


class WriterQueue:
    """The single writer: one thread, one writable connection, FIFO jobs.

    :param factory: builds the writer's session (typically an
        :class:`~repro.core.store.RDFStore` opening the file writable).
        Called once, **inside** the writer thread, so sqlite's
        same-thread check holds for the entire write path.
    :param maxsize: bound on queued jobs; a full queue raises
        :class:`PoolTimeoutError` from :meth:`submit` (backpressure)
        instead of buffering without limit.
    :param observer: metrics sink (``writer.jobs``, ``writer.errors``,
        ``writer.queue_seconds``, ``writer.exec_seconds``).
    :param faults: optional injector consulted at the ``writer.job``
        fault point before each job runs (a ``slow`` fault stalls the
        writer — the scenario the drain hard-deadline contains).
    """

    def __init__(self, factory: Callable[[], Any], maxsize: int = 64,
                 observer: Observer = NULL_OBSERVER,
                 faults: FaultInjector | None = None) -> None:
        self._factory = factory
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._observer = observer
        self._faults = faults
        self._thread: threading.Thread | None = None
        self._session: Any = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopping = False
        self._aborted = False
        self._jobs_done = 0
        self._jobs_failed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "WriterQueue":
        """Spawn the writer thread and wait for its session to open."""
        if self._thread is not None:
            raise StorageError("WriterQueue already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-writer", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise StorageError(
                f"writer session failed to open: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0
             ) -> None:
        """Stop the writer, bounded by a hard drain deadline.

        With ``drain=True`` (the default) every already-queued job
        runs to completion first; with ``drain=False`` pending jobs
        fail fast with :class:`StorageError` on their futures.

        ``timeout`` is a **hard deadline** on the drain: when a job
        stalls past it, the jobs still queued fail with
        :class:`~repro.errors.WriterShutdownError` on their futures,
        the stalled job's in-flight SQL (if any) is interrupted so the
        thread can unwind, and ``stop`` returns instead of hanging —
        a caller waiting on a future always gets an answer, and a
        graceful shutdown always finishes.  ``stats()['aborted']``
        records that the drain was cut short.
        """
        if self._thread is None:
            return
        self._stopping = True
        if not drain:
            self._fail_pending(StorageError(
                "writer queue stopped before this job ran"))
        self._queue.put(_STOP)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            # Hard drain deadline hit: a job is stalled.  Fail every
            # future still waiting (typed, so callers can tell a
            # shutdown loss from a job error), break any in-flight
            # SQL, and let the daemon thread unwind on its own.
            self._aborted = True
            failed = self._fail_pending(WriterShutdownError(
                f"writer drain deadline ({timeout}s) hit with a job "
                "still running; this job was dropped before it ran"))
            self._interrupt_session()
            self._queue.put(_STOP)  # in case the drain consumed it
            if failed:
                self._observer.counter(
                    "writer.shutdown_dropped",
                    "queued jobs failed by the drain hard deadline"
                ).inc(failed)
            self._thread.join(timeout=1.0)
        self._thread = None

    def _fail_pending(self, error: BaseException) -> int:
        """Fail every queued job's future with ``error``; returns how
        many (``_STOP`` sentinels are dropped, not failed)."""
        failed = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return failed
            if item is _STOP:
                continue
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(error)
                failed += 1

    def _interrupt_session(self) -> None:
        """Break the stalled job's in-flight SQL (best effort)."""
        session = self._session
        database = getattr(session, "database", session)
        interrupt = getattr(database, "interrupt", None)
        if interrupt is not None:
            try:
                interrupt()
            except Exception:  # pragma: no cover - defensive
                pass

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def depth(self) -> int:
        """Jobs waiting in the queue right now."""
        return self._queue.qsize()

    def stats(self) -> dict[str, Any]:
        return {
            "depth": self.depth,
            "jobs_done": self._jobs_done,
            "jobs_failed": self._jobs_failed,
            "running": self.running,
            "aborted": self._aborted,
        }

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, job: WriteJob,
               timeout: float | None = 0.0,
               deadline: Deadline | None = None) -> Future:
        """Enqueue a mutation; returns its :class:`Future`.

        ``timeout`` bounds the wait for queue space: the default 0
        never blocks — a full queue raises :class:`PoolTimeoutError`
        immediately, which the HTTP layer turns into 429.

        A request :class:`~repro.obs.reqctx.Deadline` — passed in or
        found on the active request trace — that has already expired
        raises :class:`~repro.errors.DeadlineExceededError` instead of
        enqueuing work whose answer nobody is waiting for.
        """
        if self._thread is None or self._stopping:
            raise StorageError("writer queue is not running")
        if deadline is None:
            request = current_trace()
            if request is not None:
                deadline = request.deadline
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError(
                "request deadline expired before the write could be "
                f"queued (budget {deadline.budget * 1000:.0f} ms)")
        item = _QueuedJob(job=job)
        try:
            if timeout == 0.0:
                self._queue.put_nowait(item)
            else:
                self._queue.put(item, timeout=timeout)
        except queue.Full:
            raise PoolTimeoutError(
                f"writer queue full ({self._queue.maxsize} jobs "
                "pending); retry later") from None
        return item.future

    def call(self, job: WriteJob, timeout: float | None = None) -> Any:
        """Submit and wait: returns the job's result (or raises)."""
        return self.submit(job).result(timeout=timeout)

    # ------------------------------------------------------------------
    # the writer thread
    # ------------------------------------------------------------------

    def _execute(self, job: WriteJob) -> Any:
        """Run one job under a span (inside the submitter's context)."""
        if self._faults is not None:
            # The writer-stall fault point: a ``slow`` fault here
            # stalls the writer thread itself — queued jobs pile up
            # behind it, which is what the drain hard deadline and
            # degraded health exist to handle.
            self._faults.on_point(POINT_WRITER_JOB)
        with self._observer.span("writer.execute"):
            return job(self._session)

    def _run(self) -> None:
        try:
            self._session = self._factory()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        jobs = self._observer.counter(
            "writer.jobs", "mutations executed by the writer thread")
        errors = self._observer.counter(
            "writer.errors", "writer jobs that raised")
        queue_wait = self._observer.metrics.histogram(
            "writer.queue_seconds", "time jobs waited in the queue")
        exec_time = self._observer.metrics.histogram(
            "writer.exec_seconds", "writer job execution time")
        try:
            while True:
                item = self._queue.get()
                if item is _STOP:
                    return
                if not item.future.set_running_or_notify_cancel():
                    continue
                waited = time.monotonic() - item.enqueued_at
                queue_wait.observe(waited)
                if item.trace is not None:
                    item.trace.annotate_add("writer_queue_wait_seconds",
                                            waited)
                start = time.monotonic()
                try:
                    result = item.context.run(self._execute, item.job)
                except BaseException as exc:
                    self._jobs_failed += 1
                    errors.inc()
                    item.future.set_exception(exc)
                else:
                    self._jobs_done += 1
                    jobs.inc()
                    item.future.set_result(result)
                elapsed = time.monotonic() - start
                exec_time.observe(elapsed)
                if item.trace is not None:
                    item.trace.annotate_add("writer_exec_seconds",
                                            elapsed)
        finally:
            close = getattr(self._session, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - defensive
                    pass

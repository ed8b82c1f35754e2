"""The HTTP serving layer for SDO_RDF_MATCH.

The paper's system answers SDO_RDF_MATCH queries from inside Oracle,
where concurrent sessions are the database's own business.  Our SQLite
substitute is an embedded library, so this module supplies the missing
serving tier — stdlib only — on top of the concurrency primitives in
:mod:`repro.db.pool`.

Storage is one database file behind two primitives:

* **readers**: a :class:`~repro.db.pool.ConnectionPool` of read-only
  connections, each wrapped in its own :class:`RDFStore` (plan,
  statistics, term and model caches are per-connection; the
  acquire-time snoop invalidates them when a writer commits);
* **writer**: a :class:`~repro.db.pool.WriterQueue` — one thread, one
  writable connection, strict FIFO.  ``/insert`` and ``/delete``
  enqueue one job and answer when its transaction committed;
* **admission control**: a bounded gate (``workers + backlog``
  in-flight POSTs).  Saturation answers **429** with a ``Retry-After``
  header — the server sheds load, it never queues without bound;
* **consistency**: a response names its snapshot by the durable
  serve-state ``write_version`` (:mod:`repro.server.state`) — called
  ``data_version`` on reads.  :meth:`ReproServer._read_snapshot` reads
  it inside the same read transaction as the query SQL, so it is
  exactly the snapshot the rows came from (monotonic, torn-read-free).

Routes::

    POST /match    {query, models, rulebases?, aliases?, filter?,
                    order_by?, limit?}
                   -> {rows, count, data_version}
    POST /match/batch  {queries: [<match body>, ...]}
                   -> {results: [{rows, count, cached?} | {error, type}],
                       count, errors, data_version}
                   one admission ticket, one snapshot shared by every
                   sub-result; per-query errors are isolated, the
                   deadline is batch-wide
    POST /insert   {model, triples, create?}
                   -> {created, count, write_version}
    POST /delete   {model, triple, force?}
                   -> {removed, write_version}
    GET  /stats    pool/writer/admission gauges + metrics snapshot
    GET  /metrics  Prometheus text exposition
    GET  /healthz  live/ready/degraded health (503 only when unhealthy;
                   ?check=live and ?check=ready for probe splits)
    GET  /debug/slow          the slow-request log (full traces)
    GET  /debug/trace/<id>    one request's trace; ?format=chrome emits
                              the Chrome trace-event JSON array

Three request headers make the layer **resilient end to end**:

``X-Deadline-Ms``
    the client's time budget.  It becomes a monotonic
    :class:`~repro.obs.reqctx.Deadline` on the request trace; the
    admission gate rejects already-expired requests with 504 before
    spending a worker, pool acquires and writer-queue waits bound
    themselves by the remaining budget, and in-flight SQL is aborted
    by a progress-handler watchdog
    (:meth:`~repro.db.connection.Database.deadline_scope`).  A 504
    still files its partial trace in the slow-request log.
``Idempotency-Key``
    exactly-once writes.  ``/insert`` and ``/delete`` record their
    outcome in the ``rdf_idempotency$`` ledger **inside the same
    transaction** as the mutation; a retry after a dropped connection
    replays the recorded outcome instead of applying the write twice.
``X-Priority``
    shedding order (0-9, default 5).  While the server is *degraded*
    (writer queue or pool saturated, error rate past threshold —
    :mod:`repro.server.health`), requests below the priority floor
    are shed with 429 first, before the admission gate's blanket
    backpressure.

Responses sent **before the request body was read** (404 on unknown
routes, pre-admission 429/504) carry ``Connection: close`` — the
unread body would desync keep-alive framing on the next request.

Every request is **request-scoped observable**: an incoming
``X-Request-Id`` header is honored (or an id is minted), echoed on the
response, stamped onto every span the request opens — across the pool
and the writer thread — and used to key the slow-request log.  A
request slower than ``ServerConfig.slow_threshold`` is captured with
its span tree, query text, plan-cache status, EXPLAIN, and pool-/queue-
wait breakdowns; ``GET /debug/slow`` serves the capture.

Shutdown is a graceful drain: the listener stops accepting, in-flight
requests finish (handler threads are joined), queued writes run to
completion, then the pool and writer close.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
import urllib.parse
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Callable, Iterator

from repro.cache import ResultCache, normalized_key
from repro.cache.result_cache import estimate_bytes
from repro.core.store import RDFStore
from repro.db.connection import Database
from repro.db.faults import (
    POINT_RESPONSE,
    FaultInjector,
    InjectedDisconnect,
)
from repro.db.pool import ConnectionPool, WriterQueue
from repro.errors import (
    DeadlineExceededError,
    ModelNotFoundError,
    PoolTimeoutError,
    ReproError,
    StorageError,
    WriterShutdownError,
)
from repro.inference.match import sdo_rdf_match
from repro.obs.logjson import JsonFormatter, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.reqctx import (
    DEADLINE_HEADER,
    DEFAULT_PRIORITY,
    IDEMPOTENCY_KEY_HEADER,
    PRIORITY_HEADER,
    REQUEST_ID_HEADER,
    RequestTrace,
    activate,
    clean_idempotency_key,
    clean_request_id,
    current_trace,
    deactivate,
    parse_deadline_ms,
    parse_priority,
)
from repro.obs.slowlog import (
    DEFAULT_CAPACITY as SLOW_CAPACITY,
    DEFAULT_RECENT as RECENT_CAPACITY,
    DEFAULT_SLOW_THRESHOLD as SLOW_THRESHOLD,
    SlowRequestLog,
    chrome_trace_events,
)
from repro.rdf.namespaces import Alias, AliasSet
from repro.rdf.triple import Triple
from repro.server.health import (
    DEGRADED,
    UNHEALTHY,
    HealthMonitor,
    HealthReport,
)
from repro.server.state import (
    DEFAULT_IDEMPOTENCY_CAPACITY,
    bump_write_version,
    ensure_serve_state,
    lookup_idempotent,
    read_write_version,
    record_idempotent,
)

#: Durability profiles the server accepts: concurrent readers need WAL.
_WAL_PROFILES = ("durable", "paranoid")


class _BadRequest(ReproError):
    """Malformed request body or parameters (HTTP 400)."""


class _CachedMatch:
    """One ``/match`` answer, cached or about to be.

    ``rows``/``count`` are the JSON-ready payload (``/match/batch``
    splices them into its own envelope); ``hit_body`` memoizes the
    fully encoded ``/match`` hit response on first use, so steady-state
    hits skip ``json.dumps`` entirely.  The bytes are identical for
    every hit on this entry — the ``data_version`` in the body is part
    of the version the entry is keyed under, so it cannot change while
    the entry lives.  The unlocked lazy write is a benign race: two
    threads encode the same bytes.
    """

    __slots__ = ("rows", "count", "hit_body")

    def __init__(self, rows: list, count: int) -> None:
        self.rows = rows
        self.count = count
        self.hit_body: bytes | None = None


@dataclass
class ServerConfig:
    """Everything the serving layer is configured by.

    :param path: the database file.  Must be file-backed — readers and
        the writer are separate connections sharing the WAL.
    :param host: bind address (default loopback).
    :param port: TCP port; 0 picks an ephemeral port (tests).
    :param workers: read-pool size == queries executing concurrently.
    :param backlog: extra POSTs admitted beyond ``workers``; they wait
        up to ``pool_timeout`` for a reader before 429.
    :param writer_queue: bound on enqueued write jobs.
    :param durability: ``durable`` or ``paranoid`` (WAL required for
        the N-readers + 1-writer model).
    :param observe: attach a shared :class:`Observer` to every
        connection (SQL timing, spans) — the server's request metrics
        are collected either way.
    :param pool_timeout: seconds an admitted query waits for a reader.
    :param request_timeout: seconds a write request waits for its
        job's commit before answering 503 (the job still runs).
    :param retry_after: suggested client backoff reported on 429.
    :param slow_threshold: seconds at/past which a request's full
        trace is captured into the slow-request log (``/debug/slow``).
    :param slow_capacity: slow traces retained (newest win).
    :param recent_capacity: recent traces (any speed) retained for
        ``/debug/trace/<id>`` lookup.
    :param access_log: emit one JSON access-log line per request
        through :mod:`repro.obs.logjson` (off by default).
    :param access_log_stream: where access-log lines go (default
        stderr; tests pass a ``StringIO``).
    :param faults: optional :class:`~repro.db.faults.FaultInjector`
        shared by the pool, the writer queue, and the response path —
        the chaos harness's hook into the serving layer.
    :param idempotency_capacity: ``rdf_idempotency$`` ledger rows
        kept before the oldest are pruned.
    :param shed_priority_below: while degraded, POSTs with
        ``X-Priority`` below this floor are shed first (default: the
        header's default priority, so unlabeled traffic is never
        priority-shed).
    :param health_window: seconds of outcomes in the rolling
        error-rate window.
    :param error_rate_threshold: 5xx fraction at/past which the
        window degrades the server.
    :param health_min_requests: outcomes required before the error
        rate counts.
    :param degraded_queue_fraction: writer-queue depth / capacity
        at/past which the server reports degraded.
    :param degraded_pool_fraction: pool leases / size at/past which
        the server reports degraded.
    :param result_cache: keep one shared
        :class:`~repro.cache.ResultCache` of complete ``/match``
        responses, keyed on the normalized query shape and the durable
        ``write_version`` — a repeated hot read skips parsing,
        planning, and SQL entirely.  See ``docs/result_cache.md``.
    :param batch_limit: maximum sub-queries accepted by one
        ``POST /match/batch`` body.
    """

    path: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    backlog: int = 8
    writer_queue: int = 64
    durability: str = "durable"
    observe: bool = False
    pool_timeout: float = 2.0
    request_timeout: float = 30.0
    retry_after: float = 0.5
    slow_threshold: float = SLOW_THRESHOLD
    slow_capacity: int = SLOW_CAPACITY
    recent_capacity: int = RECENT_CAPACITY
    access_log: bool = False
    access_log_stream: IO[str] | None = field(
        default=None, repr=False, compare=False)
    faults: FaultInjector | None = field(
        default=None, repr=False, compare=False)
    idempotency_capacity: int = DEFAULT_IDEMPOTENCY_CAPACITY
    shed_priority_below: int = DEFAULT_PRIORITY
    health_window: float = 30.0
    error_rate_threshold: float = 0.5
    health_min_requests: int = 10
    degraded_queue_fraction: float = 0.8
    degraded_pool_fraction: float = 1.0
    result_cache: bool = False
    batch_limit: int = 100

    def __post_init__(self) -> None:
        if self.path == ":memory:":
            raise StorageError(
                "the server needs a file-backed database; :memory: "
                "cannot be shared across connections")
        if self.durability not in _WAL_PROFILES:
            raise StorageError(
                f"durability {self.durability!r} cannot serve "
                "concurrent readers; pick one of "
                f"{', '.join(_WAL_PROFILES)} (WAL journaling)")
        if self.workers < 1:
            raise StorageError("server needs workers >= 1")
        if self.backlog < 0:
            raise StorageError("server backlog must be >= 0")
        if self.slow_threshold < 0:
            raise StorageError("slow_threshold must be >= 0 seconds")
        if self.slow_capacity < 1 or self.recent_capacity < 1:
            raise StorageError("slow/recent capacities must be >= 1")
        if self.idempotency_capacity < 1:
            raise StorageError("idempotency_capacity must be >= 1")
        if not 0 <= self.shed_priority_below <= 10:
            raise StorageError("shed_priority_below must be in 0..10")
        if self.batch_limit < 1:
            raise StorageError("batch_limit must be >= 1")


class ReproServer:
    """The serving layer: pool + writer + HTTP front end.

    Usage::

        server = ReproServer(ServerConfig(path="universe.db"))
        server.start()          # returns once the port is bound
        ...
        server.stop()           # graceful drain

    or blocking, from the CLI: ``server.run()``.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        if config.observe:
            self.observer: Observer = Observer()
            self.metrics = self.observer.metrics
        else:
            self.observer = NULL_OBSERVER
            self.metrics = MetricsRegistry()
        self.slowlog = SlowRequestLog(
            threshold=config.slow_threshold,
            capacity=config.slow_capacity,
            recent=config.recent_capacity)
        self._access = get_logger("server.access")
        self._access_handler: Any = None  # attached by start()
        # The read pool and the writer queue; start() opens both.
        self.pool: ConnectionPool | None = None
        self.writer: WriterQueue | None = None
        # One app-level cache shared by every handler thread, keyed on
        # the durable write_version (never the pooled readers' local
        # data_version counters, which are not comparable across
        # connections).  Survives stop()/start() cycles by design —
        # version keys are durable, so reuse is safe.
        self.result_cache = ResultCache() if config.result_cache else None
        self._http: _HTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._gate = threading.BoundedSemaphore(
            config.workers + config.backlog)
        self._draining = False
        self._started_at = 0.0
        self.health = HealthMonitor(
            window=config.health_window,
            error_threshold=config.error_rate_threshold,
            min_requests=config.health_min_requests,
            queue_fraction=config.degraded_queue_fraction,
            pool_fraction=config.degraded_pool_fraction)

    def _attach_access_log(self):
        """Give the access logger its own JSON-lines handler.

        Self-contained on purpose: ``--access-log`` must work without
        any global logging configuration, and must not double-emit
        when one exists (``propagate`` off).
        """
        import logging

        handler = logging.StreamHandler(
            self.config.access_log_stream
            if self.config.access_log_stream is not None else sys.stderr)
        handler.setFormatter(JsonFormatter())
        self._access.addHandler(handler)
        self._access.setLevel(logging.INFO)
        self._access.propagate = False
        return handler

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _writer_factory(self) -> RDFStore:
        """Build the writer session (runs inside the writer thread)."""
        database = Database(
            self.config.path, durability=self.config.durability,
            observer=self.observer if self.observer.enabled else None,
            faults=self.config.faults)
        store = RDFStore(database, observe=self.config.observe)
        ensure_serve_state(database)
        return store

    def start(self) -> "ReproServer":
        """Open the pool, the writer and the listener (non-blocking)."""
        if self._http is not None:
            raise StorageError("server already started")
        config = self.config
        if config.access_log:
            self._access_handler = self._attach_access_log()
        self.writer = WriterQueue(
            self._writer_factory, maxsize=config.writer_queue,
            observer=self.observer, faults=config.faults).start()
        self.pool = ConnectionPool(
            config.path, size=config.workers,
            durability=config.durability,
            timeout=config.pool_timeout,
            observer=self.observer,
            wrap=lambda db: RDFStore(db, observe=False),
            invalidate=RDFStore.invalidate_caches,
            faults=config.faults)
        self._http = _HTTPServer(
            (config.host, config.port), _Handler)
        self._http.app = self
        self._draining = False
        self._started_at = time.monotonic()
        self._serve_thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True)
        self._serve_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — the real port when 0 was asked."""
        if self._http is None:
            raise StorageError("server is not running")
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: drain requests, flush writes, close."""
        if self._http is None:
            return
        self._draining = True
        self._http.shutdown()          # stop accepting new connections
        self._http.server_close()      # join in-flight handler threads
        self._serve_thread.join(timeout=30.0)
        self._http = None
        self._serve_thread = None
        self.writer.stop(drain=drain)
        self.pool.close()
        self.writer = self.pool = None
        if self._access_handler is not None:
            self._access.removeHandler(self._access_handler)
            self._access_handler.close()
            self._access_handler = None

    def run(self) -> None:
        """Start and block until KeyboardInterrupt (CLI entry point)."""
        self.start()
        try:
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ReproServer":
        if self._http is None:
            self.start()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    @staticmethod
    def _match_spec(payload: dict) -> tuple:
        """Validate one match request body (shared with /match/batch)
        into the positional arguments of SDO_RDF_MATCH — ``(query,
        models, rulebases, aliases, filter, order_by, limit)``, the
        order ``sdo_rdf_match`` and ``normalized_key`` both take."""
        query = _require_str(payload, "query")
        models = _str_list(payload, "models", required=True)
        rulebases = _str_list(payload, "rulebases", required=False)
        aliases = _parse_aliases(payload.get("aliases"))
        filter_ = payload.get("filter")
        if filter_ is not None and not isinstance(filter_, str):
            raise _BadRequest("filter must be a string")
        order_by = payload.get("order_by")
        if order_by is not None and not isinstance(order_by, str):
            raise _BadRequest("order_by must be a string")
        limit = payload.get("limit")
        if limit is not None and not isinstance(limit, int):
            raise _BadRequest("limit must be an integer")
        return query, models, rulebases, aliases, filter_, order_by, \
            limit

    @contextmanager
    def _read_snapshot(self, deadline: Any) -> Iterator[tuple[RDFStore, int]]:
        """The one read seam: yields ``(store, version)`` — a pooled
        lease under the deadline watchdog, and the durable
        ``write_version`` naming the snapshot.  One read transaction
        spans the version read AND everything the caller does inside
        the context, a result-cache probe included."""
        with self.pool.lease() as store:
            database = store.database
            with database.deadline_scope(deadline), \
                    database.transaction():
                yield store, read_write_version(database)

    def _answer(self, store: RDFStore, spec: tuple,
                version: int) -> tuple[_CachedMatch, bool | None]:
        """One query inside a snapshot: cache probe → ``sdo_rdf_match``
        → JSON-ready rows → cache store.

        Returns the answer and how the cache took part: ``True`` a hit,
        ``False`` a miss (now stored), ``None`` no cache configured.
        Entries key on the normalized query shape and ``version``
        (equality only), so any commit invalidates.
        """
        cache = self.result_cache
        if cache is not None:
            # Raises QueryError (HTTP 400) on anything the match
            # parsers would reject — never silently uncached.
            cache_key = normalized_key(*spec)
            cached = cache.lookup(cache_key, version)
            if cached is not None:
                return cached, True
        rows = sdo_rdf_match(store, *spec)
        rows_payload = [row.as_dict() for row in rows]
        answer = _CachedMatch(rows_payload, len(rows))
        if cache is None:
            return answer, None
        cache.store(cache_key, version, answer,
                    nbytes=estimate_bytes(rows_payload) + 64)
        return answer, False

    def _do_match(self, payload: dict,
                  meta: dict | None = None) -> tuple[int, Any]:
        spec = self._match_spec(payload)
        request = current_trace()
        deadline = request.deadline if request is not None else None
        start = time.perf_counter()
        with self._read_snapshot(deadline) as (store, version):
            answer, cached = self._answer(store, spec, version)
            if (not cached and request is not None
                    and time.perf_counter() - start
                    >= self.slowlog.threshold):
                # Still inside the snapshot: capture the plan the slow
                # query would (re)use.  The plan cache makes this a
                # cheap lookup, not a second compile.
                try:
                    explanation = sdo_rdf_match(store, *spec,
                                                explain=True)
                    request.annotate("explain", explanation.render())
                    request.annotate("plan_sql", explanation.plan.sql)
                except ReproError:
                    pass
        if request is not None:
            request.annotate("rows", answer.count)
            request.annotate("data_version", version)
        body = {
            "rows": answer.rows,
            "count": answer.count,
            "data_version": version,
        }
        if cached:
            if request is not None:
                request.annotate("engine", "cache")
            if answer.hit_body is None:
                body["cached"] = True
                answer.hit_body = json.dumps(body).encode("utf-8")
            return 200, answer.hit_body
        if cached is not None:
            body["cached"] = False
        return 200, body

    # ------------------------------------------------------------------
    # POST /match/batch — the multi-query protocol
    # ------------------------------------------------------------------

    def _do_match_batch(self, payload: dict,
                        meta: dict | None = None) -> tuple[int, dict]:
        """N match queries, one request.

        The whole batch costs one admission ticket (taken before the
        body was read, like any POST) and one snapshot
        (:meth:`_read_snapshot`): every sub-result shares the version —
        the consistency /match gives one query, extended
        across the batch.  What is isolated per sub-query and what
        aborts the batch is :meth:`_one_batch_query`'s contract; a 504
        is always safe to retry (the batch is read-only).
        """
        raw = payload.get("queries")
        if not isinstance(raw, list) or not raw:
            raise _BadRequest(
                "'queries' must be a non-empty list of match objects")
        if len(raw) > self.config.batch_limit:
            raise _BadRequest(
                f"batch of {len(raw)} queries exceeds the server's "
                f"batch_limit of {self.config.batch_limit}")
        request = current_trace()
        deadline = request.deadline if request is not None else None
        with self._read_snapshot(deadline) as (store, version):
            results = [self._one_batch_query(store, item, version)
                       for item in raw]
        errors = sum(1 for entry in results if "error" in entry)
        if request is not None:
            request.annotate("batch", len(results))
            request.annotate("batch_errors", errors)
            request.annotate("data_version", version)
        return 200, {
            "results": results,
            "count": len(results),
            "errors": errors,
            "data_version": version,
        }

    def _one_batch_query(self, store: RDFStore, item: Any,
                         version: int) -> dict:
        """One sub-query of a batch: answer or isolated error object.

        Two error families are deliberately NOT isolated and abort the
        whole batch: DeadlineExceededError (the client's budget is for
        the request, not per sub-query) and _BadRequest (a malformed
        entry is a protocol error, answered 400 like any other
        malformed body).  Execution errors — unknown model, a query
        the parser rejects — isolate to their own ``{error, type}``
        object so siblings still answer.
        """
        try:
            if not isinstance(item, dict):
                raise _BadRequest(
                    "each batch entry must be a match object")
            answer, cached = self._answer(
                store, self._match_spec(item), version)
        except (DeadlineExceededError, _BadRequest):
            raise
        except ReproError as exc:
            return _error(exc)
        entry = {"rows": answer.rows, "count": answer.count}
        if cached is not None:
            entry["cached"] = cached
        return entry

    def _do_insert(self, payload: dict,
                   meta: dict | None = None) -> tuple[int, dict]:
        model = _require_str(payload, "model")
        raw = payload.get("triples")
        if not isinstance(raw, list) or not raw:
            raise _BadRequest(
                "triples must be a non-empty list of [s, p, o]")
        triples = [Triple.from_text(*_spo(item)) for item in raw]
        if payload.get("create", False):
            # Check-and-create runs on the writer, so concurrent
            # creators cannot race.
            def ensure(store: RDFStore) -> None:
                with store.database.transaction():
                    if not store.model_exists(model):
                        store.create_model(model)

            self._await(self.writer.submit(ensure), "insert")

        def mutate(store: RDFStore) -> dict:
            info = store.models.get(model)
            created = 0
            for triple in triples:
                result = store.parser.insert(info, triple)
                created += 1 if result.created else 0
            version = bump_write_version(store.database)
            return {"created": created, "count": len(triples),
                    "write_version": version}

        return 200, self._write(mutate, "insert", meta)

    def _do_delete(self, payload: dict,
                   meta: dict | None = None) -> tuple[int, dict]:
        model = _require_str(payload, "model")
        subject, predicate, obj = _spo(payload.get("triple"))
        force = bool(payload.get("force", False))

        def mutate(store: RDFStore) -> dict:
            removed = store.remove_triple(
                model, subject, predicate, obj, force=force)
            version = bump_write_version(store.database)
            return {"removed": removed, "write_version": version}

        return 200, self._write(mutate, "delete", meta)

    def _write(self, mutate: Callable[[RDFStore], dict], route: str,
               meta: dict | None) -> dict:
        """Enqueue one write job and wait for its commit.

        ``mutate`` shares its write transaction with the idempotency
        ledger: a recorded outcome is replayed without executing
        ``mutate`` at all, a fresh one is recorded atomically with the
        mutation — exactly-once across retries.  A full writer queue
        is an immediate PoolTimeoutError (429).
        """
        key = (meta or {}).get("idempotency_key")
        capacity = self.config.idempotency_capacity

        def job(store: RDFStore) -> dict:
            database = store.database
            with database.transaction():
                if key is not None:
                    recorded = lookup_idempotent(database, key)
                    if recorded is not None:
                        self.metrics.counter(
                            "server.idempotent_replays",
                            "write retries answered from the "
                            "idempotency ledger").inc()
                        recorded["idempotent_replay"] = True
                        return recorded
                outcome = mutate(store)
                if key is not None:
                    record_idempotent(database, key, route, outcome,
                                      capacity)
            return outcome

        return self._await(self.writer.submit(job), route)

    def _await(self, future: Any, route: str) -> Any:
        """Wait for a write job's commit.

        ``request_timeout``, bounded by the request deadline, caps the
        wait.  When it is the deadline that ran out, a still-queued job
        is cancelled (never applied), a running one keeps going, and
        the 504 tells the client to retry with the same
        Idempotency-Key; a plain ``request_timeout`` expiry leaves the
        job queued (503 — it still runs).
        """
        request = current_trace()
        deadline = request.deadline if request is not None else None
        timeout = self.config.request_timeout
        if deadline is not None:
            timeout = deadline.bound(timeout)
        try:
            return future.result(timeout=max(0.0, timeout))
        except FutureTimeoutError:
            if deadline is None or not deadline.expired:
                raise
            future.cancel()
            raise DeadlineExceededError(
                f"deadline expired waiting for the {route} commit; a "
                "cancelled job was not applied, a running one keeps "
                "going — retry with the same Idempotency-Key to learn "
                "the outcome") from None

    def _do_stats(self) -> tuple[int, dict]:
        self._sample_gauges()
        # Lease before reading the gauges: the lease snoops
        # ``data_version``, so the pool counters are live and both
        # version numbers come from the same lease.
        try:
            with self.pool.lease(timeout=1.0) as store:
                write_version = read_write_version(store.database)
                data_version = store.database.data_version
        except PoolTimeoutError:
            # A saturated pool answers nulls rather than blocking
            # /stats behind query traffic.
            write_version = data_version = None
        body = {
            "server": {
                "uptime_seconds": round(
                    time.monotonic() - self._started_at, 3),
                "workers": self.config.workers,
                "backlog": self.config.backlog,
                "durability": self.config.durability,
                "observe": self.config.observe,
                "draining": self._draining,
                "admission_free": getattr(self._gate, "_value", None),
                "result_cache": self.result_cache is not None,
            },
            "pool": self.pool.stats(),
            "writer": self.writer.stats(),
            "health": self._assess_health().as_dict(),
            "slow_requests": self.slowlog.stats(),
            "metrics": self.metrics.as_dict(),
            # "version" means two things only: the durable
            # ``write_version`` a response names, and the leased
            # connection's in-process ``data_version`` cache-key
            # counter (a one-element list, as the wire has carried it).
            "versions": {
                "write_version": write_version,
                "data_version": [data_version],
            },
        }
        if self.result_cache is not None:
            body["result_cache"] = self.result_cache.stats()
        return 200, body

    def _do_debug_slow(self, query_string: str) -> tuple[int, Any]:
        """``GET /debug/slow[?limit=N]`` — the slow-request log."""
        params = urllib.parse.parse_qs(query_string)
        limit = None
        if "limit" in params:
            try:
                limit = int(params["limit"][0])
            except (ValueError, IndexError):
                raise _BadRequest("limit must be an integer") from None
        return 200, {
            **self.slowlog.stats(),
            "requests": self.slowlog.entries(limit),
        }

    def _do_debug_trace(self, request_id: str,
                        query_string: str) -> tuple[int, Any]:
        """``GET /debug/trace/<id>[?format=chrome]`` — one trace."""
        entry = self.slowlog.find(request_id)
        if entry is None:
            return 404, {
                "error": f"no trace retained for request "
                         f"{request_id!r} (slow ring "
                         f"{self.config.slow_capacity}, recent ring "
                         f"{self.config.recent_capacity})",
                "type": "NotFound",
            }
        params = urllib.parse.parse_qs(query_string)
        if params.get("format", [""])[0] == "chrome":
            label = (f"{entry.get('method', '')} {entry.get('path', '')} "
                     f"[{request_id}]")
            return 200, chrome_trace_events(
                entry.get("spans", ()), label=label)
        return 200, entry

    def _assess_health(self) -> HealthReport:
        """Grade the serving layer from its live gauges."""
        return self.health.assess(
            writer_running=self._writer_running(),
            writer_depth=self._queue_depth(),
            queue_limit=self.config.writer_queue,
            pool_in_use=self._pool_in_use(),
            pool_size=self.config.workers)

    def _writer_running(self) -> bool:
        """The writer thread is alive (False when stopped)."""
        return self.writer is not None and self.writer.running

    def _queue_depth(self) -> int:
        """Writer-queue depth gauge (0 when stopped)."""
        return self.writer.depth if self.writer is not None else 0

    def _pool_in_use(self) -> int:
        """Read leases out (0 when stopped)."""
        return self.pool.in_use if self.pool is not None else 0

    def _do_healthz(self, query_string: str = "") -> tuple[int, dict]:
        """Live/ready/degraded health.

        ``?check=live`` answers 200 whenever the process responds at
        all; ``?check=ready`` answers by readiness only (degraded is
        still ready — it serves, shedding low priority).  The full
        report additionally runs a bounded integrity probe.
        """
        params = urllib.parse.parse_qs(query_string)
        check = params.get("check", [""])[0]
        report = self._assess_health()
        if check == "live":
            return 200, {"status": report.state, "live": True}
        if check == "ready":
            return ((200 if report.ready else 503),
                    {"status": report.state, "ready": report.ready})
        writer_ok = self._writer_running()
        integrity = "skipped (writer down)"
        if writer_ok:
            try:
                integrity = self._integrity_probe()
            except PoolTimeoutError:
                # Saturated is busy, not broken.
                integrity = "skipped (pool busy)"
            except DeadlineExceededError:
                integrity = "skipped (deadline)"
            if integrity != "ok" and not integrity.startswith("skipped"):
                report = HealthReport(
                    UNHEALTHY,
                    [*report.reasons, f"integrity check: {integrity}"],
                    report.error_rate, report.window_requests)
        body = {
            "status": report.state,
            **report.as_dict(),
            "writer_running": writer_ok,
            "writer_depth": self._queue_depth(),
            "integrity": integrity,
        }
        return (200 if report.ready else 503), body

    def _integrity_probe(self) -> str:
        """A bounded ``PRAGMA quick_check`` of the database file."""
        with self.pool.lease(timeout=1.0) as store:
            return str(store.database.query_value(
                "PRAGMA quick_check", default="failed"))

    # ------------------------------------------------------------------
    # dispatch plumbing (called from the handler threads)
    # ------------------------------------------------------------------

    def _dispatch(self, fn: Callable[..., tuple[int, dict]],
                  payload: dict,
                  meta: dict | None = None) -> tuple[int, dict, dict]:
        """Run a route, mapping exceptions to HTTP statuses."""
        try:
            status, body = fn(payload, meta or {})
            return status, body, {}
        except DeadlineExceededError as exc:
            if exc.sql_interrupted:
                self.metrics.counter(
                    "sql.interrupts",
                    "statements aborted mid-flight by a deadline "
                    "watchdog").inc()
                request = current_trace()
                if request is not None:
                    request.annotate("sql_interrupted", True)
            return self._deadline_exceeded(str(exc))
        except WriterShutdownError as exc:
            return 503, _error(exc), {}
        except PoolTimeoutError as exc:
            return self._reject(str(exc))
        except ModelNotFoundError as exc:
            return 404, _error(exc), {}
        except FutureTimeoutError:
            return 503, {"error": "write did not commit within "
                         f"{self.config.request_timeout}s (still "
                         "queued)", "type": "Timeout"}, {}
        except StorageError as exc:
            self.metrics.counter("server.errors").inc()
            return 500, _error(exc), {}
        except ReproError as exc:
            # Everything else is the request's fault: _BadRequest,
            # QueryError, ParseError, TermError, ...
            return 400, _error(exc), {}

    def _saturation(self) -> dict:
        """The saturation context of a refused request — current queue
        depth and pool occupancy against their limits — so a client
        (or a human reading the log) sees *why*."""
        return {
            "queue_depth": self._queue_depth(),
            "queue_limit": self.config.writer_queue,
            "pool_in_use": self._pool_in_use(),
            "pool_size": self.config.workers,
            "admission_limit": self.config.workers + self.config.backlog,
            "admission_free": getattr(self._gate, "_value", None),
        }

    def _deadline_exceeded(self, message: str) -> tuple[int, dict, dict]:
        """A 504 deadline answer with the same saturation context as
        the 429 path — *why* the budget ran out is usually load."""
        self.metrics.counter(
            "server.deadline_exceeded",
            "requests answered 504 after their deadline expired").inc()
        body = {"error": message, "type": "DeadlineExceeded",
                **self._saturation()}
        return 504, body, {}

    def _maybe_shed(self,
                    trace: RequestTrace) -> tuple[int, dict, dict] | None:
        """Degraded-mode priority shedding (before the admission gate).

        The priority check runs first so default-priority traffic
        never pays for a health assessment on the clean path.
        """
        if trace.priority >= self.config.shed_priority_below:
            return None
        report = self._assess_health()
        if report.state != DEGRADED:
            return None
        self.metrics.counter(
            "server.shed_degraded",
            "low-priority requests shed while degraded").inc()
        return self._retry_later(
            f"server degraded ({'; '.join(report.reasons)}); "
            f"shedding priority {trace.priority} < floor "
            f"{self.config.shed_priority_below}",
            "DegradedShed", health=report.as_dict())

    def _reject(self, message: str) -> tuple[int, dict, dict]:
        """A 429 backpressure answer, saturation context attached."""
        self.metrics.counter(
            "server.rejected", "requests shed with HTTP 429").inc()
        return self._retry_later(message, "Backpressure",
                                 **self._saturation())

    def _retry_later(self, message: str, kind: str,
                     **context: Any) -> tuple[int, dict, dict]:
        """Every 429: the suggested backoff in the body and as a
        ``Retry-After`` header (whole seconds, at least 1)."""
        retry_after = self.config.retry_after
        body = {"error": message, "type": kind,
                "retry_after_seconds": retry_after, **context}
        return 429, body, {
            "Retry-After": str(max(1, math.ceil(retry_after)))}

    def admit(self) -> bool:
        """Try to take an admission slot (POST routes only).

        Every admission decision — granted or shed — samples the
        saturation gauges, so ``/metrics`` tracks queue depth and pool
        occupancy exactly as load arrives.
        """
        admitted = self._gate.acquire(blocking=False)
        self._sample_saturation()
        return admitted

    def readmit(self) -> None:
        self._gate.release()

    def _sample_saturation(self) -> None:
        """Refresh the queue-depth and pool-occupancy gauges."""
        self.metrics.gauge(
            "server.queue_depth",
            "write jobs waiting in the writer queue").set(
                self._queue_depth())
        self.metrics.gauge(
            "pool.in_use",
            "read connections out on lease").set(self._pool_in_use())

    def _sample_gauges(self) -> None:
        """Refresh every gauge for ``/metrics`` and ``/stats``: the
        saturation gauges, plus the result-cache counters — read under
        the cache lock, so only when a gauge is about to be read, never
        per admission."""
        self._sample_saturation()
        if self.result_cache is None:
            return
        status = self.result_cache.stats()
        for name in ("entries", "bytes", "hits", "misses", "stores",
                     "evictions", "invalidations", "rejects"):
            self.metrics.gauge(
                f"result_cache.{name}",
                f"result-cache {name} since start").set(status[name])

    # ------------------------------------------------------------------
    # request lifecycle (called from the handler threads)
    # ------------------------------------------------------------------

    def finish_request_trace(self, trace: RequestTrace,
                             status: int) -> None:
        """Book-keep one completed request: metrics, slow log, access
        log."""
        duration = trace.finish(status)
        self.health.observe(status)
        label = _route_label(trace.path)
        self.metrics.counter(f"server.requests.{label}").inc()
        self.metrics.histogram(
            f"server.endpoint.{label}.seconds",
            f"request wall time of {trace.method} {label}").observe(
                duration)
        # 504s force-capture: the partial trace of a deadline-expired
        # request is evidence, even when the budget was tiny.
        if self.slowlog.record(trace, force=status == 504):
            self.metrics.counter(
                "server.slow_requests",
                "requests captured past the slow threshold").inc()
        if self.config.access_log:
            self._access.info(
                "%s %s %d", trace.method, trace.path, status,
                extra={
                    "method": trace.method,
                    "path": trace.path,
                    "status": status,
                    "duration_ms": round(duration * 1000, 3),
                    "request_id": trace.request_id,
                    "worker": threading.current_thread().name,
                })


# ----------------------------------------------------------------------
# request validation helpers
# ----------------------------------------------------------------------

#: Fixed route -> metric-label table; anything else is "other" so 404
#: scans cannot explode the metric namespace.
_ROUTE_LABELS = {
    "/match": "match",
    "/match/batch": "match_batch",
    "/insert": "insert",
    "/delete": "delete",
    "/stats": "stats",
    "/metrics": "metrics",
    "/healthz": "healthz",
    "/health": "healthz",
    "/debug/slow": "debug_slow",
}


def _route_label(path: str) -> str:
    base = path.split("?", 1)[0]
    if base.startswith("/debug/trace/"):
        return "debug_trace"
    return _ROUTE_LABELS.get(base, "other")


def _error(exc: Exception) -> dict:
    return {"error": str(exc), "type": type(exc).__name__}


def _require_str(payload: dict, key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value.strip():
        raise _BadRequest(f"{key!r} must be a non-empty string")
    return value


def _str_list(payload: dict, key: str, required: bool) -> list[str]:
    """A list of strings (a bare string is a list of one); a missing
    optional list is empty, a required one must not be."""
    value = payload.get(key)
    if value is None and not required:
        return []
    if isinstance(value, str):
        value = [value]
    if (not isinstance(value, list) or (required and not value)
            or not all(isinstance(item, str) for item in value)):
        raise _BadRequest(
            f"{key!r} must be a {'non-empty ' if required else ''}"
            "list of strings")
    return value


def _parse_aliases(raw: Any) -> AliasSet | None:
    if raw is None:
        return None
    if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in raw.items()):
        raise _BadRequest(
            "'aliases' must be an object of prefix -> namespace")
    return AliasSet(Alias(prefix, namespace)
                    for prefix, namespace in raw.items())


def _spo(item: Any) -> tuple[str, str, str]:
    if (not isinstance(item, (list, tuple)) or len(item) != 3
            or not all(isinstance(part, str) for part in item)):
        raise _BadRequest(
            "each triple must be a [subject, predicate, object] "
            "list of strings")
    return item[0], item[1], item[2]


# ----------------------------------------------------------------------
# the HTTP front end
# ----------------------------------------------------------------------

class _HTTPServer(ThreadingHTTPServer):
    """Threading server tuned for graceful drain.

    Handler threads are non-daemon and joined on ``server_close``, so
    ``stop()`` returns only after every in-flight request finished.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    app: "ReproServer"


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter; all logic lives on :class:`ReproServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-rdf"
    # Idle keep-alive connections release their thread after this many
    # seconds, bounding how long a drain can take.
    timeout = 5
    # Headers and body go out in separate writes; without TCP_NODELAY
    # the body write stalls on the client's delayed ACK (~40 ms per
    # request on loopback).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    @property
    def app(self) -> ReproServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        self.app.observer.log.debug(
            "http %s", format % args,
            extra={"client": self.address_string()})

    def _begin_request(self, method: str) -> RequestTrace:
        """Create and activate this request's trace context.

        The client's ``X-Request-Id`` is honored when usable; the id
        is echoed on the response either way.  The deadline and
        priority headers are parsed here so every later layer reads
        them off the trace; a garbled deadline is remembered for a 400
        (a client that sends a budget means it).
        """
        request_id = clean_request_id(
            self.headers.get(REQUEST_ID_HEADER))
        self._deadline_error: str | None = None
        deadline = None
        try:
            deadline = parse_deadline_ms(
                self.headers.get(DEADLINE_HEADER))
        except ValueError as exc:
            self._deadline_error = str(exc)
        trace = RequestTrace(
            request_id, method=method, path=self.path,
            deadline=deadline,
            priority=parse_priority(self.headers.get(PRIORITY_HEADER)))
        self._trace = trace
        self._token = activate(trace)
        return trace

    def _end_request(self, status: int) -> None:
        """Close the trace if no response ever finalized it (socket
        errors, handler bugs)."""
        self._finalize(status)

    def _finalize(self, status: int) -> None:
        """Deactivate and file the trace exactly once per request.

        Runs *before* the response bytes go out, so a client that got
        its answer can immediately find its own trace under
        ``/debug/trace/<id>`` — no read-after-write race.
        """
        if self._token is None:
            return
        deactivate(self._token)
        self._token = None
        self.app.finish_request_trace(self._trace, status)

    def _send_json(self, status: int, body: Any,
                   headers: dict | None = None,
                   close: bool = False) -> int:
        """Send a JSON response.

        ``close=True`` adds ``Connection: close`` — required whenever
        the response goes out before the request body was read, since
        the unread bytes would be parsed as the next request line on a
        kept-alive connection.  A ``bytes`` body is pre-encoded JSON
        (a result-cache hit) and is sent as-is.
        """
        data = (body if isinstance(body, bytes)
                else json.dumps(body).encode("utf-8"))
        self._finalize(status)
        faults = self.app.config.faults
        if faults is not None:
            try:
                faults.on_point(POINT_RESPONSE)
            except InjectedDisconnect:
                self._drop_mid_response(status, data)
                return status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        trace = getattr(self, "_trace", None)
        if trace is not None:
            self.send_header(REQUEST_ID_HEADER, trace.request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close or self.app._draining:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)
        return status

    def _drop_mid_response(self, status: int, data: bytes) -> None:
        """An injected mid-response connection drop (chaos harness).

        Sends the headers and *half* the body, then hard-closes the
        socket: the client sees a short read exactly as if the network
        died after the commit — the failure mode ``Idempotency-Key``
        retries exist for.
        """
        self.app.metrics.counter(
            "server.dropped_responses",
            "responses cut mid-body by an injected fault").inc()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            trace = getattr(self, "_trace", None)
            if trace is not None:
                self.send_header(REQUEST_ID_HEADER, trace.request_id)
            self.end_headers()
            self.wfile.write(data[:len(data) // 2])
            self.wfile.flush()
        except OSError:
            pass
        finally:
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _read_body(self) -> bytes:
        """Consume the request body.

        Always called before responding — leftover body bytes on a
        keep-alive connection would be misread as the next request
        line.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return b""
        return self.rfile.read(length)

    @staticmethod
    def _parse_json(raw: bytes) -> dict:
        if not raw:
            raise _BadRequest("request needs a JSON body")
        try:
            payload = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("JSON body must be an object")
        return payload

    # -- routes --------------------------------------------------------

    _POST_ROUTES = {
        "/match": "_do_match",
        "/match/batch": "_do_match_batch",
        "/insert": "_do_insert",
        "/delete": "_do_delete",
    }

    def do_GET(self) -> None:
        app = self.app
        app.metrics.counter("server.requests").inc()
        self._begin_request("GET")
        status = 500
        try:
            status = self._route_get(app)
        finally:
            self._end_request(status)

    def _route_get(self, app: ReproServer) -> int:
        path, _, query_string = self.path.partition("?")
        if self._deadline_error is not None:
            return self._send_json(
                400, {"error": self._deadline_error,
                      "type": "BadDeadline"})
        if path == "/metrics":
            app._sample_gauges()
            self._finalize(200)
            data = app.metrics.prometheus_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.send_header(REQUEST_ID_HEADER,
                             self._trace.request_id)
            self.end_headers()
            self.wfile.write(data)
            return 200
        if path in ("/healthz", "/health"):
            status, body = app._do_healthz(query_string)
            return self._send_json(status, body)
        if path == "/stats":
            status, body = app._do_stats()
            return self._send_json(status, body)
        if path == "/debug/slow":
            try:
                status, body = app._do_debug_slow(query_string)
            except _BadRequest as exc:
                return self._send_json(400, _error(exc))
            return self._send_json(status, body)
        if path.startswith("/debug/trace/"):
            request_id = urllib.parse.unquote(
                path[len("/debug/trace/"):])
            status, body = app._do_debug_trace(request_id,
                                               query_string)
            return self._send_json(status, body)
        return self._send_json(
            404, {"error": f"no such route: {self.path}",
                  "type": "NotFound"})

    def do_POST(self) -> None:
        # Ordering is the resilience contract: route, deadline, shed,
        # and admission are all decided BEFORE the body is read, so a
        # rejected request costs no body I/O — and every pre-body
        # response carries Connection: close (the unread body would
        # desync keep-alive framing).
        app = self.app
        app.metrics.counter("server.requests").inc()
        route = self._POST_ROUTES.get(self.path)
        trace = self._begin_request("POST")
        status = 500
        try:
            if route is None:
                status = self._send_json(
                    404, {"error": f"no such route: {self.path}",
                          "type": "NotFound"}, close=True)
                return
            if self._deadline_error is not None:
                status = self._send_json(
                    400, {"error": self._deadline_error,
                          "type": "BadDeadline"}, close=True)
                return
            deadline = trace.deadline
            if deadline is not None and deadline.expired:
                # Admission gate: never spend a worker on a request
                # whose client already gave up.
                code, body, headers = app._deadline_exceeded(
                    f"deadline ({deadline.budget * 1000:.0f}ms "
                    "budget) expired before admission")
                status = self._send_json(code, body, headers,
                                         close=True)
                return
            shed = app._maybe_shed(trace)
            if shed is not None:
                code, body, headers = shed
                status = self._send_json(code, body, headers,
                                         close=True)
                return
            if not app.admit():
                code, body, headers = app._reject(
                    f"server saturated ({app.config.workers} workers "
                    f"+ {app.config.backlog} backlog in flight)")
                status = self._send_json(code, body, headers,
                                         close=True)
                return
            start = time.perf_counter()
            try:
                raw = self._read_body()
                meta = {
                    "idempotency_key": clean_idempotency_key(
                        self.headers.get(IDEMPOTENCY_KEY_HEADER)),
                }
                # The response goes out only after the http.request
                # span closed and the trace is filed (_finalize inside
                # _send_json) — a client that has its answer can read
                # its own trace immediately.
                try:
                    with app.observer.span("http.request",
                                           method="POST",
                                           path=self.path):
                        payload = self._parse_json(raw)
                        code, body, headers = app._dispatch(
                            getattr(app, route), payload, meta)
                except _BadRequest as exc:
                    status = self._send_json(400, _error(exc))
                    return
                status = self._send_json(code, body, headers)
            finally:
                app.readmit()
                app.metrics.histogram(
                    "server.latency_seconds",
                    "wall time of admitted POST requests").observe(
                        time.perf_counter() - start)
        finally:
            self._end_request(status)

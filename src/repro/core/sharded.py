"""The sharded storage engine: ``rdf_link$`` partitioned across N files.

:class:`ShardedRDFStore` implements the
:class:`~repro.core.engine.StorageEngine` contract over N complete
central-schema SQLite files.  Construction goes through the familiar
facade — ``RDFStore(path, shards=4)`` returns one of these.

**Layout.**  Every shard is a full single-file store (``rdf_value$``,
``rdf_node$``, ``rdf_link$``, model registry, …) plus the
``rdf_shard$`` identity row of :mod:`repro.db.shard`.  Triples are
routed by the stable (model, subject) hash of
:class:`~repro.db.shard.ShardRouter`; model DDL is broadcast to every
shard so any shard can answer any pattern of any model.

**Dictionary encoding.**  ``rdf_value$`` is *replicated on demand*:
each shard dict-encodes only the terms its own triples use, with
shard-local VALUE_IDs.  The alternative — one global value store —
would put a cross-shard coordination point back on the write path,
which is exactly what sharding exists to remove.  The price is
two-fold and documented in ``docs/sharding.md``: a term appearing on k
shards stores k value rows, and cross-shard query results must be
merged on resolved terms, never on VALUE_IDs (see
:mod:`repro.inference.scatter`).

**Concurrency.**  One :class:`~repro.db.pool.WriterQueue` per shard —
writes to different shards commit (and fsync) in parallel, which is the
whole throughput story — and one lazy
:class:`~repro.db.pool.ConnectionPool` of read-only sessions per shard
for scatter-gather reads.  LINK_IDs come from per-shard strides
(:data:`~repro.db.shard.LINK_ID_STRIDE`), so they stay globally unique
and reification DBUris keep resolving.

**Known limits** (documented in ``docs/sharding.md``): rulebase
inference is rejected (a per-partition closure is not the closure of
the union), and there is no cross-shard atomic snapshot — each shard's
read is transactionally consistent, the vector of them is not.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.core.engine import StorageEngine
from repro.core.links import Context, LinkRow
from repro.core.store import RDFStore
from repro.core.triple_s import SDO_RDF_TRIPLE_S
from repro.db.connection import Database
from repro.db.pool import ConnectionPool, WriterQueue
from repro.db.resilience import resolve_profile
from repro.db.shard import ShardRouter, ensure_shard_meta, shard_of_link_id
from repro.db.dburi import DBUri
from repro.errors import StorageError, TripleNotFoundError
from repro.rdf.namespaces import RDF
from repro.rdf.terms import URI
from repro.rdf.triple import Triple

_RDF_TYPE = RDF.type
_RDF_STATEMENT = RDF.Statement


class _ShardReader:
    """A tiny read-side store stand-in for one shard.

    ``SDO_RDF_TRIPLE_S`` handles returned by the sharded engine are
    attached to one of these instead of the shard's *writer* session —
    the writer connection lives on the writer thread and must never be
    touched from the caller's thread.  Member functions only need
    ``lexical_of``/``term_of``, resolved through the shard's read pool.
    """

    def __init__(self, engine: "ShardedRDFStore", shard: int) -> None:
        self._engine = engine
        self._shard = shard

    def lexical_of(self, value_id: int) -> str:
        with self._engine.shard_session(self._shard) as session:
            return session.values.get_lexical(value_id)

    def term_of(self, value_id: int):
        with self._engine.shard_session(self._shard) as session:
            return session.values.get_term(value_id)


class ShardedRDFStore(StorageEngine):
    """N-file partitioned RDF store (see module docstring).

    :param database: the logical base path; shard files are its
        ``.shard<k>`` siblings.  Must be file-backed — ``:memory:``
        cannot be partitioned across connections.
    :param observe: observability switch forwarded to each shard's
        writer store.
    :param durability: profile name; must be a WAL profile
        (``durable``/``paranoid``) because every shard serves pooled
        readers concurrently with its writer.  Default ``durable``.
    :param shards: number of partitions (>= 1 — 1 is allowed and
        useful as a like-for-like baseline in benchmarks).
    :param writer_queue: per-shard bound on queued write jobs.
    :param pool_size: read connections per shard.
    :param pool_timeout: seconds a read lease waits before 429-style
        :class:`~repro.errors.PoolTimeoutError`.
    :param writer_init: optional hook run once inside each shard's
        writer thread, right after its store opens (the server
        installs its serve-state table here).
    """

    engine_kind = "sharded"

    def __init__(self, database: str | Path | None,
                 observe: bool | None = None,
                 durability: str | None = None, *,
                 shards: int,
                 writer_queue: int = 256,
                 pool_size: int = 2,
                 pool_timeout: float = 5.0,
                 writer_init: Callable[[RDFStore], None] | None = None
                 ) -> None:
        if not isinstance(database, (str, Path)):
            raise StorageError(
                "a sharded store is constructed from a base *path* "
                f"(got {type(database).__name__}); it opens one "
                "database file per shard itself")
        profile = resolve_profile(durability if durability is not None
                                  else "durable")
        if profile.journal_mode != "WAL":
            raise StorageError(
                f"durability profile {profile.name!r} journals in "
                f"{profile.journal_mode}; a sharded store needs a WAL "
                "profile (durable/paranoid) so each shard's readers "
                "can run concurrently with its writer")
        self.router = ShardRouter(database, shards)
        self._durability = profile.name
        self._observe = observe
        self._pool_size = pool_size
        self._pool_timeout = pool_timeout
        self._writer_init = writer_init
        self._lock = threading.Lock()
        self._closed = False
        self._pools: list[ConnectionPool | None] = [None] * shards
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, 2 * shards),
            thread_name_prefix="repro-shard")
        # Writers start eagerly: the factory creates each shard's
        # schema, so lazily-created read pools always find it.
        self._writers: list[WriterQueue] = []
        try:
            for index in range(shards):
                writer = WriterQueue(self._shard_factory(index),
                                     maxsize=writer_queue)
                writer.start()
                self._writers.append(writer)
        except BaseException:
            self.close()
            raise

    def _shard_factory(self, index: int) -> Callable[[], RDFStore]:
        def factory() -> RDFStore:
            database = Database(self.router.shard_path(index),
                                durability=self._durability)
            ensure_shard_meta(database, index, self.router.shard_count)
            store = RDFStore(database, observe=self._observe)
            store.links.set_link_id_range(
                *self.router.link_id_range(index))
            if self._writer_init is not None:
                self._writer_init(store)
            return store
        return factory

    # ------------------------------------------------------------------
    # shard access
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self.router.shard_count

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The fan-out executor (scatter-gather reads run on it)."""
        return self._executor

    def writer(self, index: int) -> WriterQueue:
        """Shard ``index``'s writer queue."""
        return self._writers[index]

    def pool(self, index: int) -> ConnectionPool:
        """Shard ``index``'s read pool (created on first use)."""
        pool = self._pools[index]
        if pool is None:
            with self._lock:
                pool = self._pools[index]
                if pool is None:
                    if self._closed:
                        raise StorageError(
                            f"sharded store {self.router.base_path} "
                            "is closed")
                    pool = ConnectionPool(
                        self.router.shard_path(index),
                        size=self._pool_size,
                        durability=self._durability,
                        timeout=self._pool_timeout,
                        wrap=lambda db: RDFStore(db, observe=False),
                        invalidate=RDFStore.invalidate_caches)
                    self._pools[index] = pool
        return pool

    @contextmanager
    def shard_session(self, index: int) -> Iterator[RDFStore]:
        """A leased read-only :class:`RDFStore` session on one shard."""
        with self.pool(index).lease() as session:
            yield session

    def submit(self, index: int,
               job: Callable[[RDFStore], Any]) -> Future:
        """Enqueue a mutation on shard ``index``'s writer, blocking
        until queue space frees: embedded callers want backpressure,
        not failures (the server submits to the writer queue itself,
        where a full queue is an immediate 429)."""
        return self._writers[index].submit(job, timeout=None)

    def call(self, index: int, job: Callable[[RDFStore], Any]) -> Any:
        """Submit to one shard and wait for the result."""
        return self.submit(index, job).result()

    def broadcast(self, job: Callable[[RDFStore], Any]) -> list[Any]:
        """Run ``job`` on every shard's writer, in shard order.

        Sequential on purpose: broadcasts are rare DDL (model
        create/drop) where "shard 3 failed but 0-2 committed" is much
        easier to reason about — and repair, by re-running — when the
        failure point is ordered.
        """
        return [self.call(index, job)
                for index in self.router.all_shards()]

    def pool_in_use(self) -> int:
        """Read leases out across every shard's pool (live gauge).

        Pools that were never created (no read ever touched that
        shard) count zero — they hold no leases by definition.
        """
        return sum(pool.in_use for pool in self._pools
                   if pool is not None)

    # ------------------------------------------------------------------
    # StorageEngine: model management
    # ------------------------------------------------------------------

    def create_model(self, model_name: str, table_name: str = "",
                     column_name: str = "triple"):
        """Create a model on every shard (broadcast DDL).

        MODEL_IDs are shard-local and may differ between shards, which
        is why the whole engine addresses models by *name*.
        """
        results = self.broadcast(
            lambda store: store.create_model(model_name, table_name,
                                             column_name))
        return results[0]

    def drop_model(self, model_name: str) -> int:
        removed = self.broadcast(
            lambda store: store.drop_model(model_name))
        return sum(removed)

    def model_exists(self, model_name: str) -> bool:
        with self.shard_session(0) as session:
            return session.model_exists(model_name)

    # ------------------------------------------------------------------
    # StorageEngine: triples
    # ------------------------------------------------------------------

    def shard_of_triple(self, model_name: str, triple: Triple) -> int:
        return self.router.shard_of(model_name, triple.subject.lexical)

    def insert_triple(self, model_name: str, subject: str,
                      predicate: str, obj: str,
                      context: Context = Context.DIRECT
                      ) -> SDO_RDF_TRIPLE_S:
        return self.insert_triple_obj(
            model_name, Triple.from_text(subject, predicate, obj),
            context=context)

    def insert_triple_obj(self, model_name: str, triple: Triple,
                          context: Context = Context.DIRECT,
                          count_cost: bool = True) -> SDO_RDF_TRIPLE_S:
        shard, result = self._insert_obj(model_name, triple, context,
                                         count_cost)
        return self._handle(shard, result.link)

    def _insert_obj(self, model_name: str, triple: Triple,
                    context: Context, count_cost: bool = True):
        shard = self.shard_of_triple(model_name, triple)

        def job(store: RDFStore):
            info = store.models.get(model_name)
            return store.parser.insert(info, triple, context=context,
                                       count_cost=count_cost)

        return shard, self.call(shard, job)

    def insert_many(self, model_name: str,
                    triples: "Iterator[Triple] | list[Triple]",
                    context: Context = Context.DIRECT) -> int:
        """Bulk insert: one transaction per touched shard, committed in
        parallel — this is the sharded write-throughput fast path."""
        groups: dict[int, list[Triple]] = {}
        for triple in triples:
            shard = self.shard_of_triple(model_name, triple)
            groups.setdefault(shard, []).append(triple)
        futures = [
            self.submit(shard, lambda store, batch=batch:
                        store.insert_many(model_name, batch,
                                          context=context))
            for shard, batch in groups.items()]
        return sum(future.result() for future in futures)

    def bulk_load(self, model_name: str,
                  triples: "Iterator[Triple] | list[Triple]",
                  batch_size: int = 10_000) -> "BulkLoadReport":
        """Staged bulk load, one :class:`BulkLoader` per touched shard.

        This is the true parallel write path: the staged pipeline
        spends its time in long set-wise SQLite statements
        (``executemany`` staging, ``INSERT ... SELECT`` merges) that
        release the GIL, so the per-shard loads genuinely overlap —
        unlike :meth:`insert_many`, whose row-at-a-time Python loop
        serialises on the interpreter lock.  LINK_IDs come from each
        shard's stride (the loader consults
        :attr:`repro.core.links.LinkStore.id_range`).
        """
        from repro.core.bulkload import BulkLoader, BulkLoadReport

        groups: dict[int, list[Triple]] = {}
        for triple in triples:
            shard = self.shard_of_triple(model_name, triple)
            groups.setdefault(shard, []).append(triple)
        futures = [
            self.submit(shard, lambda store, batch=batch:
                        BulkLoader(store, model_name,
                                   batch_size=batch_size).load(batch))
            for shard, batch in groups.items()]
        reports = [future.result() for future in futures]
        return BulkLoadReport(
            staged=sum(r.staged for r in reports),
            new_values=sum(r.new_values for r in reports),
            new_links=sum(r.new_links for r in reports),
            duplicate_triples=sum(r.duplicate_triples
                                  for r in reports))

    def remove_triple(self, model_name: str, subject: str,
                      predicate: str, obj: str,
                      force: bool = False) -> bool:
        triple = Triple.from_text(subject, predicate, obj)
        shard = self.shard_of_triple(model_name, triple)
        return self.call(
            shard, lambda store: store.remove_triple(
                model_name, subject, predicate, obj, force=force))

    def find_link(self, model_name: str, subject: str, predicate: str,
                  obj: str) -> LinkRow | None:
        triple = Triple.from_text(subject, predicate, obj)
        shard = self.shard_of_triple(model_name, triple)
        with self.shard_session(shard) as session:
            return session.find_link(model_name, subject, predicate,
                                     obj)

    def is_triple(self, model_name: str, subject: str, predicate: str,
                  obj: str) -> bool:
        return self.find_link(model_name, subject, predicate, obj) \
            is not None

    def iter_model_triples(self, model_name: str) -> Iterator[Triple]:
        """All triples of a model, shard by shard.

        Each shard's triples are materialised under its own lease (a
        generator must not hold a pooled connection hostage while the
        caller dawdles); order is shard-major, LINK_ID-minor.
        """
        for index in self.router.all_shards():
            with self.shard_session(index) as session:
                chunk = list(session.iter_model_triples(model_name))
            yield from chunk

    def count_triples(self, model_name: str | None = None) -> int:
        """Total triples across every shard (optionally one model)."""
        total = 0
        for index in self.router.all_shards():
            with self.shard_session(index) as session:
                model_id = None
                if model_name is not None:
                    model_id = session.models.get(model_name).model_id
                total += session.links.count(model_id)
        return total

    # ------------------------------------------------------------------
    # reification — LINK_IDs name their shard, so DBUris still resolve
    # ------------------------------------------------------------------

    def get_triple_s(self, link_id: int) -> SDO_RDF_TRIPLE_S:
        shard = shard_of_link_id(link_id)
        self._check_shard_of_link(shard, link_id)
        with self.shard_session(shard) as session:
            link = session.links.get(link_id)
        return self._handle(shard, link)

    def triple_of(self, link_id: int) -> Triple:
        shard = shard_of_link_id(link_id)
        self._check_shard_of_link(shard, link_id)
        with self.shard_session(shard) as session:
            return session.triple_of(link_id)

    def reify_triple(self, model_name: str,
                     rdf_t_id: int) -> SDO_RDF_TRIPLE_S:
        """The reification constructor on a partitioned store.

        The base triple lives on the shard its LINK_ID names; the
        reification *statement* routes by its own subject (the DBUri
        text) and may land on a different shard — which is fine, the
        DBUri resolves by LINK_ID, not by co-location.
        """
        source = shard_of_link_id(rdf_t_id)
        self._check_shard_of_link(source, rdf_t_id)
        with self.shard_session(source) as session:
            if not session.links.exists(rdf_t_id):
                raise TripleNotFoundError(rdf_t_id)
        resource = URI(DBUri.for_link(rdf_t_id).text)
        statement = Triple(resource, _RDF_TYPE, _RDF_STATEMENT)
        return self.insert_triple_obj(model_name, statement)

    def is_reified_id(self, model_name: str, rdf_t_id: int) -> bool:
        shard = self.router.shard_of(
            model_name, DBUri.for_link(rdf_t_id).text)
        with self.shard_session(shard) as session:
            return session.is_reified_id(model_name, rdf_t_id)

    def is_reified(self, model_name: str, subject: str, predicate: str,
                   obj: str) -> bool:
        link = self.find_link(model_name, subject, predicate, obj)
        if link is None:
            return False
        return self.is_reified_id(model_name, link.link_id)

    def assert_about(self, model_name: str, subject: str,
                     predicate: str, rdf_t_id: int) -> SDO_RDF_TRIPLE_S:
        source = shard_of_link_id(rdf_t_id)
        self._check_shard_of_link(source, rdf_t_id)
        with self.shard_session(source) as session:
            if not session.links.exists(rdf_t_id):
                raise TripleNotFoundError(rdf_t_id)
        if not self.is_reified_id(model_name, rdf_t_id):
            self.reify_triple(model_name, rdf_t_id)
        resource = DBUri.for_link(rdf_t_id).text
        assertion = Triple.from_text(subject, predicate, resource)
        return self.insert_triple_obj(model_name, assertion)

    def assert_implied(self, model_name: str, reif_sub: str,
                       reif_prop: str, subject: str, predicate: str,
                       obj: str) -> SDO_RDF_TRIPLE_S:
        base = Triple.from_text(subject, predicate, obj)
        _, result = self._insert_obj(model_name, base,
                                     Context.INDIRECT, count_cost=False)
        base_id = result.link_id
        if not self.is_reified_id(model_name, base_id):
            self.reify_triple(model_name, base_id)
        resource = DBUri.for_link(base_id).text
        assertion = Triple.from_text(reif_sub, reif_prop, resource)
        return self.insert_triple_obj(model_name, assertion)

    def _check_shard_of_link(self, shard: int, link_id: int) -> None:
        if not 0 <= shard < self.shard_count:
            raise TripleNotFoundError(link_id)

    def _handle(self, shard: int, link: LinkRow) -> SDO_RDF_TRIPLE_S:
        return SDO_RDF_TRIPLE_S(
            rdf_t_id=link.link_id, rdf_m_id=link.model_id,
            rdf_s_id=link.start_node_id, rdf_p_id=link.p_value_id,
            rdf_o_id=link.end_node_id,
            _store=_ShardReader(self, shard))

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def scatter_match(self, query: str, models: Sequence[str],
                      rulebases: Sequence[str] = (),
                      aliases=None, filter: str | None = None,
                      order_by: str | None = None,
                      limit: int | None = None,
                      explain: bool = False, optimize: bool = True):
        """Scatter-gather SDO_RDF_MATCH — ``sdo_rdf_match`` delegates
        here for any store that defines this method.  Uncached: pooled
        connections' ``data_version`` counters name no snapshot a cache
        could key on (the server tier keys on the durable vector)."""
        from repro.inference.scatter import scatter_match
        return scatter_match(
            self, query, models, rulebases=rulebases, aliases=aliases,
            filter=filter, order_by=order_by, limit=limit,
            explain=explain, optimize=optimize)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain every writer, close every pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for writer in self._writers:
            try:
                writer.stop(drain=True)
            except Exception:  # pragma: no cover - defensive
                pass
        for pool in self._pools:
            if pool is not None:
                pool.close()
        self._executor.shutdown(wait=False)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (f"ShardedRDFStore(base={self.router.base_path!r}, "
                f"shards={self.shard_count}, "
                f"durability={self._durability!r})")

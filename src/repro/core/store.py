"""The RDF store facade: one object per database's RDF universe.

:class:`RDFStore` owns the central schema of a
:class:`repro.db.Database` and exposes the operations of the paper:

* model management (``CREATE_RDF_MODEL`` semantics, per-model views);
* triple insertion through the parse pipeline of section 4.1;
* the four ``SDO_RDF_TRIPLE_S`` constructor semantics of sections 4.2
  and 5, including streamlined DBUri reification;
* lookups used by the object member functions;
* NDM access — every model is a partition of the universe network.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator

from repro.core.links import Context, LinkRow, LinkStore
from repro.core.models import ModelInfo, ModelRegistry
from repro.core.parser import InsertResult, TripleParser
from repro.core.schema import (
    RDF_NETWORK_NAME,
    central_schema_exists,
    create_central_schema,
)
from repro.core.triple_s import SDO_RDF_TRIPLE_S
from repro.core.values import ValueStore
from repro.db.connection import Database
from repro.db.dburi import DBUri
from repro.errors import (
    ModelNotFoundError,
    ReificationError,
    SchemaError,
    TripleNotFoundError,
)
from repro.ndm.network import LogicalNetwork
from repro.obs.observer import Observer, observe_from_env
from repro.rdf.namespaces import RDF
from repro.rdf.terms import RDFTerm, URI
from repro.rdf.triple import Triple

#: The object of every streamlined reification statement.
_RDF_TYPE = RDF.type
_RDF_STATEMENT = RDF.Statement


class RDFStore:
    """The central-schema RDF store.

    :param database: the hosting database; pass an existing
        :class:`~repro.db.connection.Database`, a path, or nothing for an
        in-memory store.
    :param observe: switch observability (SQL timing, spans, metrics —
        see :mod:`repro.obs`) on for the hosting database.  ``None``
        (the default) defers to the ``REPRO_OBSERVE`` environment
        variable; an existing enabled observer on a passed-in database
        is never downgraded.
    :param durability: durability profile for the hosting database
        (``ephemeral``/``durable``/``paranoid`` — see
        :mod:`repro.db.resilience`).  ``None`` defers to the
        ``REPRO_DURABILITY`` environment variable.  Ignored when an
        already-constructed :class:`Database` is passed in — that
        database's own profile stands.
    """

    def __init__(self, database: Database | str | Path | None = None,
                 observe: bool | None = None,
                 durability: str | None = None) -> None:
        if database is None:
            database = Database(durability=durability)
        elif isinstance(database, (str, Path)):
            database = Database(database, durability=durability)
        if observe is None:
            observe = observe_from_env()
        if observe and not database.observer.enabled:
            database.set_observer(Observer())
        self._db = database
        if database.read_only:
            # A pooled server reader cannot create the schema (and the
            # "idempotent" re-create path writes); the writer must have
            # established it first.
            if not central_schema_exists(database):
                raise SchemaError(
                    f"read-only database {database.path} has no central "
                    "RDF schema; open it writable once (or start the "
                    "writer) before attaching pooled readers")
        else:
            # Idempotent: ensures the NDM catalog entry exists too.
            create_central_schema(database)
        self.values = ValueStore(database)
        self.links = LinkStore(database)
        self.models = ModelRegistry(database)
        self.parser = TripleParser(database, self.values, self.links,
                                   self.models)
        self._plan_cache = None
        self._match_statistics = None
        self._rules_indexes = None
        self._auto_rules_indexes = None
        # RLock: loading maintenance targets under the lock may itself
        # construct the lazy rules-index manager.
        self._lazy_lock = threading.RLock()
        self._result_cache = None
        if not database.read_only:
            self.parser.set_delta_hook(self._on_base_delta)

    @property
    def database(self) -> Database:
        """The hosting database engine."""
        return self._db

    @property
    def plan_cache(self):
        """The SDO_RDF_MATCH plan cache (lazy, one per store), binding
        each hit's constants through this store's value dictionary."""
        if self._plan_cache is None:
            with self._lazy_lock:
                if self._plan_cache is None:
                    from repro.inference.plan import PlanCache
                    self._plan_cache = PlanCache(self.values)
        return self._plan_cache

    @property
    def match_statistics(self):
        """Planner statistics over this store (lazy, version-checked)."""
        if self._match_statistics is None:
            with self._lazy_lock:
                if self._match_statistics is None:
                    from repro.inference.stats import MatchStatistics
                    self._match_statistics = MatchStatistics(self)
        return self._match_statistics

    @property
    def rules_indexes(self):
        """The rules-index manager (lazy, one per store).

        Sharing one manager keeps its in-memory closure states warm
        across the write path, the query planner, and the inference
        facade — constructing ad-hoc managers would reload the closure
        on every delta.
        """
        if self._rules_indexes is None:
            with self._lazy_lock:
                if self._rules_indexes is None:
                    from repro.inference.rules_index import (
                        RulesIndexManager,
                    )
                    self._rules_indexes = RulesIndexManager(self)
        return self._rules_indexes

    def invalidate_rules_maintenance(self) -> None:
        """Forget the cached write-time maintenance targets (called by
        the manager when indexes are created/dropped/repoliced)."""
        self._auto_rules_indexes = None

    def rules_maintenance_targets(self, model_name: str):
        """Auto-maintained rules indexes covering ``model_name``."""
        targets = self._auto_rules_indexes
        if targets is None:
            with self._lazy_lock:
                targets = self._auto_rules_indexes
                if targets is None:
                    targets = self._load_maintenance_targets()
                    self._auto_rules_indexes = targets
        name = model_name.lower()
        return tuple(index for index in targets
                     if name in index.model_names)

    def _load_maintenance_targets(self):
        # Cheap path for stores that never created a rules index: one
        # sqlite_master probe, then a cached empty tuple — the write
        # path must not pay for inference it doesn't use.
        from repro.inference.rules_index import INDEX_CATALOG
        if self._rules_indexes is None \
                and not self._db.table_exists(INDEX_CATALOG):
            return ()
        return tuple(self.rules_indexes.auto_maintained())

    def _on_base_delta(self, model: ModelInfo, added, removed) -> None:
        """Parser hook: maintain covering auto-policy rules indexes
        inside the same transaction as the base write."""
        targets = self.rules_maintenance_targets(model.model_name)
        if targets:
            self.run_rules_maintenance(targets, added, removed, model)

    # ------------------------------------------------------------------
    # caches: the query-result cache (see repro.cache,
    # docs/result_cache.md) and the flush after other connections' commits
    # ------------------------------------------------------------------

    @property
    def result_cache(self):
        """The attached :class:`~repro.cache.ResultCache`, or None when
        result caching is disabled.  The match path routes through
        this via duck typing."""
        return self._result_cache

    def enable_result_cache(self):
        """Attach a fresh result cache (default byte cap); returns it.

        The cache keys on this connection's ``data_version``, so it is
        coherent per store instance — pooled readers must share one
        cache keyed on the durable write_version instead (the server
        does; see :mod:`repro.server.app`).
        """
        from repro.cache import ResultCache
        self._result_cache = ResultCache()
        return self._result_cache

    def attach_result_cache(self, cache) -> None:
        """Attach an existing cache, or None to detach."""
        self._result_cache = cache

    def invalidate_caches(self) -> None:
        """Flush the term and model caches after another connection
        committed to this file (a term, or a model the writer dropped,
        may be gone).  Caches keyed on ``data_version`` need no flush:
        :meth:`~repro.db.connection.Database.poll_data_version` has
        already bumped it."""
        self.values.invalidate_cache()
        self.models.invalidate_cache()

    def poll_snapshot(self) -> None:
        """Flush the caches when another connection (a second store on
        the file, another process) has committed since the last poll.

        One ``PRAGMA data_version``.  ``sdo_rdf_match``, the point
        probes and :meth:`model_exists` call it on entry, so a model
        another store dropped, or a name it reused, is not answered
        from this store's caches.
        """
        if self._db.poll_data_version():
            self.invalidate_caches()

    def run_rules_maintenance(self, targets, added, removed,
                              model: "ModelInfo | None" = None) -> None:
        """Apply each target's maintenance policy for a base delta."""
        manager = self.rules_indexes
        for index in targets:
            try:
                if index.maintain == "incremental":
                    manager.apply_delta(index.index_name, added, removed,
                                        source_model=model)
                else:
                    manager.rebuild(index.index_name)
            except ModelNotFoundError:
                # Another covered model was dropped: the index cannot
                # be maintained, but that must not fail writes to the
                # surviving models — it simply stays stale.
                continue

    @property
    def observer(self) -> Observer:
        """The hosting database's observer (no-op unless enabled)."""
        return self._db.observer

    def close(self) -> None:
        """Close the underlying database connection."""
        self._db.close()

    def __enter__(self) -> "RDFStore":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # model management
    # ------------------------------------------------------------------

    def create_model(self, model_name: str, table_name: str = "",
                     column_name: str = "triple") -> ModelInfo:
        """Create an RDF model (graph) and its ``rdfm_<model>`` view."""
        return self.models.create(model_name, table_name or model_name,
                                  column_name)

    def drop_model(self, model_name: str) -> int:
        """Drop a model: its triples, blank nodes, view, and registry row.

        Returns the number of triples removed.
        """
        info = self.models.get(model_name)
        removed = self.parser.remove_model_triples(info)
        self.models.drop(model_name)
        self.values.invalidate_cache()
        return removed

    def model_exists(self, model_name: str) -> bool:
        """True when a model with this name exists."""
        self.poll_snapshot()
        return self.models.exists(model_name)

    # ------------------------------------------------------------------
    # triple insertion / removal
    # ------------------------------------------------------------------

    def insert_triple(self, model_name: str, subject: str, predicate: str,
                      obj: str,
                      context: Context = Context.DIRECT
                      ) -> SDO_RDF_TRIPLE_S:
        """The base constructor: insert (or find) a triple from text.

        Prefixed names are stored verbatim, matching the paper's examples
        ("the prefixes gov: and id: are used ... for simplicity").
        """
        return self.insert_triple_obj(
            model_name, Triple.from_text(subject, predicate, obj),
            context=context)

    def insert_triple_obj(self, model_name: str, triple: Triple,
                          context: Context = Context.DIRECT,
                          count_cost: bool = True) -> SDO_RDF_TRIPLE_S:
        """Insert a parsed :class:`~repro.rdf.triple.Triple`."""
        info = self.models.get(model_name)
        result = self.parser.insert(info, triple, context=context,
                                    count_cost=count_cost)
        observer = self._db.observer
        if observer.enabled:
            observer.counter("store.insert_triple").inc()
            if result.created:
                observer.counter("store.triples_created").inc()
        return self._handle(result.link)

    def insert_many(self, model_name: str,
                    triples: "Iterator[Triple] | list[Triple]",
                    context: Context = Context.DIRECT) -> int:
        """Bulk insert; returns the number of *new* link rows created."""
        info = self.models.get(model_name)
        created = 0
        total = 0
        with self._db.observer.span("store.insert_many",
                                    model=model_name) as span:
            with self._db.transaction():
                for triple in triples:
                    result = self.parser.insert(info, triple,
                                                context=context)
                    created += 1 if result.created else 0
                    total += 1
            span.set("triples", total)
            span.set("created", created)
        return created

    def remove_triple(self, model_name: str, subject: str, predicate: str,
                      obj: str, force: bool = False) -> bool:
        """Remove one reference to the triple (see parser.remove)."""
        info = self.models.get(model_name)
        return self.parser.remove(
            info, Triple.from_text(subject, predicate, obj), force=force)

    # ------------------------------------------------------------------
    # reification (section 5)
    # ------------------------------------------------------------------

    def reify_triple(self, model_name: str,
                     rdf_t_id: int) -> SDO_RDF_TRIPLE_S:
        """The reification constructor: ``SDO_RDF_TRIPLE_S(model, t_id)``.

        Generates ``</ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=t_id], rdf:type,
        rdf:Statement>`` — the only part of the reification quad the
        store keeps.  The inserted link's REIF_LINK is 'Y' because its
        subject is a DBUri.
        """
        if not self.links.exists(rdf_t_id):
            raise TripleNotFoundError(rdf_t_id)
        self._db.observer.counter("store.reify_triple").inc()
        resource = URI(DBUri.for_link(rdf_t_id).text)
        statement = Triple(resource, _RDF_TYPE, _RDF_STATEMENT)
        return self.insert_triple_obj(model_name, statement)

    def assert_about(self, model_name: str, subject: str, predicate: str,
                     rdf_t_id: int) -> SDO_RDF_TRIPLE_S:
        """Assertion constructor for a direct triple.

        Reifies the triple identified by ``rdf_t_id`` (when not already
        reified) and inserts ``<subject, predicate, DBUri(rdf_t_id)>``.
        """
        if not self.links.exists(rdf_t_id):
            raise TripleNotFoundError(rdf_t_id)
        model_id = self.models.get(model_name).model_id
        if not self._is_reified_id(model_id, rdf_t_id):
            self.reify_triple(model_name, rdf_t_id)
        resource = DBUri.for_link(rdf_t_id).text
        assertion = Triple.from_text(subject, predicate, resource)
        return self.insert_triple_obj(model_name, assertion)

    def assert_implied(self, model_name: str, reif_sub: str,
                       reif_prop: str, subject: str, predicate: str,
                       obj: str) -> SDO_RDF_TRIPLE_S:
        """Assertion constructor for an implied statement (section 5.2).

        Inserts the base triple with CONTEXT='I' when it is new (it is
        not a fact, merely mentioned); an already-direct base triple
        keeps its 'D'.  Then reifies it and makes the assertion.
        """
        info = self.models.get(model_name)
        base = Triple.from_text(subject, predicate, obj)
        result = self.parser.insert(info, base, context=Context.INDIRECT,
                                    count_cost=False)
        base_id = result.link_id
        if not self._is_reified_id(info.model_id, base_id):
            self.reify_triple(model_name, base_id)
        resource = DBUri.for_link(base_id).text
        assertion = Triple.from_text(reif_sub, reif_prop, resource)
        return self.insert_triple_obj(model_name, assertion)

    def assert_base_for_reification(self, model_name: str,
                                    triple: Triple) -> InsertResult:
        """Insert the base triple of a reification without asserting it.

        New triples get CONTEXT='I' (they exist only because something
        reifies them); an existing direct triple keeps its 'D'.  COST is
        not counted — no application row references the base directly.
        """
        info = self.models.get(model_name)
        return self.parser.insert(info, triple, context=Context.INDIRECT,
                                  count_cost=False)

    def is_reified_id(self, model_name: str, rdf_t_id: int) -> bool:
        """Is the triple with ``rdf_t_id`` reified in ``model_name``?

        "To determine if a triple is reified in a specified graph, a
        search is done for its DBUriType" — one statement, which finds
        the DBUri's VALUE_ID and probes the reification statement.
        """
        self.poll_snapshot()
        return self._is_reified_id(self.models.get(model_name).model_id,
                                   rdf_t_id)

    def _is_reified_id(self, model_id: int, rdf_t_id: int) -> bool:
        """:meth:`is_reified_id` without the snapshot poll, for the
        assertion constructors, which write."""
        vocabulary = self._statement_vocabulary()
        return vocabulary is not None and \
            self.links.is_reified_id(model_id, *vocabulary, rdf_t_id)

    def is_reified(self, model_name: str, subject: str, predicate: str,
                   obj: str) -> bool:
        """``SDO_RDF.IS_REIFIED(model, s, p, o)`` (paper Figure 11): the
        base link's probe and the reification's, in one statement."""
        model_id, ids = self._probe(model_name, subject, predicate, obj)
        if ids is None:
            return False
        vocabulary = self._statement_vocabulary()
        if vocabulary is None:
            return False
        return self.links.is_reified(model_id, *vocabulary, *ids)

    def _statement_vocabulary(self) -> tuple[int, int] | None:
        """The VALUE_IDs of rdf:type and rdf:Statement (from the warm
        value cache), or None while either is unstored: then nothing
        is reified."""
        type_id = self.values.find_id(_RDF_TYPE)
        statement_id = self.values.find_id(_RDF_STATEMENT)
        if type_id is None or statement_id is None:
            return None
        return type_id, statement_id

    def reified_target(self, dburi_text: str) -> LinkRow:
        """Resolve a reification resource back to its base triple."""
        uri = DBUri.parse(dburi_text)
        if not uri.is_link_uri:
            raise ReificationError(
                f"{dburi_text} is not an rdf_link$ DBUri")
        return self.links.get(uri.link_id)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def find_link(self, model_name: str, subject: str, predicate: str,
                  obj: str) -> LinkRow | None:
        """The link row for a text triple in a model, or None."""
        model_id, ids = self._probe(model_name, subject, predicate, obj)
        return None if ids is None else self.links.find(model_id, *ids)

    def is_triple(self, model_name: str, subject: str, predicate: str,
                  obj: str) -> bool:
        """``SDO_RDF.IS_TRIPLE`` semantics."""
        model_id, ids = self._probe(model_name, subject, predicate, obj)
        return ids is not None and self.links.contains(model_id, *ids)

    def _probe(self, model_name: str, subject: str, predicate: str,
               obj: str) -> tuple[int, tuple[int, int, int] | None]:
        """A point probe's entry: poll the snapshot, then the model's
        id and the texts' VALUE_IDs (None when a term is not stored)."""
        self.poll_snapshot()
        model_id = self.models.get(model_name).model_id
        return model_id, self.values.find_text_ids(subject, predicate,
                                                   obj)

    def get_triple_s(self, link_id: int) -> SDO_RDF_TRIPLE_S:
        """The storage object for an existing LINK_ID."""
        return self._handle(self.links.get(link_id))

    def lexical_of(self, value_id: int) -> str:
        """Member-function backend: text of a VALUE_ID."""
        return self.values.get_lexical(value_id)

    def term_of(self, value_id: int) -> RDFTerm:
        """The full term object of a VALUE_ID."""
        return self.values.get_term(value_id)

    def triple_of(self, link_id: int) -> Triple:
        """Reassemble the :class:`Triple` stored under LINK_ID."""
        link = self.links.get(link_id)
        subject = self.values.get_term(link.start_node_id)
        predicate = self.values.get_term(link.p_value_id)
        obj = self.values.get_term(link.end_node_id)
        assert isinstance(predicate, URI)
        return Triple(subject, predicate, obj)

    def iter_model_triples(self, model_name: str) -> Iterator[Triple]:
        """All triples of a model as term objects."""
        info = self.models.get(model_name)
        for link in self.links.iter_model(info.model_id):
            yield self.triple_of(link.link_id)

    def attach(self, obj: SDO_RDF_TRIPLE_S) -> SDO_RDF_TRIPLE_S:
        """Attach a detached storage object to this store."""
        return obj.with_store(self)

    def _handle(self, link: LinkRow) -> SDO_RDF_TRIPLE_S:
        return SDO_RDF_TRIPLE_S(
            rdf_t_id=link.link_id, rdf_m_id=link.model_id,
            rdf_s_id=link.start_node_id, rdf_p_id=link.p_value_id,
            rdf_o_id=link.end_node_id, _store=self)

    # ------------------------------------------------------------------
    # NDM integration
    # ------------------------------------------------------------------

    def network(self, model_name: str | None = None) -> LogicalNetwork:
        """The NDM logical network: the whole universe, or one model's
        partition of it."""
        partition = None
        if model_name is not None:
            partition = self.models.get(model_name).model_id
        return LogicalNetwork.open(self._db, RDF_NETWORK_NAME,
                                   partition=partition)

"""Rules indexes: pre-computed inferred triples, kept fresh.

"A rules index pre-computes triples that can be inferred from applying
the rulebases" (paper section 6.1).  ``CREATE_RULES_INDEX(index_name,
models, rulebases)`` forward-chains the union of the named models'
triples under the named rulebases to fixpoint and materialises every
*new* triple in the ``rdf_inferred$`` table, keyed by index name and
stored as VALUE_IDs — the inferred rows join with ``rdf_link$`` rows
seamlessly at query time.

Beyond the paper's build-once semantics, every index carries a
**maintenance policy** (``maintain=``):

``manual`` (default)
    writes leave the index stale; queries through a stale manual index
    raise :class:`~repro.errors.StaleRulesIndexError` instead of
    silently answering from outdated entailments.

``incremental``
    writes to covered models propagate through :meth:`apply_delta` —
    semi-naïve evaluation for inserts, delete-and-rederive (DRed) for
    deletes — inside the same transaction as the base write, touching
    O(affected derivations) instead of re-running the closure.

``rebuild``
    writes trigger a full rebuild inside the write transaction (simple,
    correct, slow — the baseline the benchmark compares against).

Incremental maintenance relies on two pieces of persistent metadata:

* ``rdf_infer_support$`` — per-inferred-triple support counts: the
  number of distinct derivations (rule, antecedent instantiation,
  consequent position) producing the triple from the current closure;
* per-model write versions (``rdf_model_version$``) recorded in the
  catalog at build time — the staleness key (triple counts cannot see a
  balanced delete+insert; versions can, and they survive restarts).

The built-in ``RDFS`` rulebase name resolves to
:func:`repro.inference.rdfs_rules.rdfs_rules`; every other name is
looked up through the :class:`repro.inference.rulebase.RulebaseManager`.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.schema import LINK_TABLE
from repro.db.connection import quote_identifier
from repro.errors import ModelNotFoundError, QueryError, RulesIndexError
from repro.inference.patterns import unify
from repro.inference.rdfs_rules import RDFS_RULEBASE_NAME, rdfs_rules
from repro.inference.rulebase import Rule, RulebaseManager, match_patterns
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import URI
from repro.rdf.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.models import ModelInfo
    from repro.core.store import RDFStore

INDEX_CATALOG = "rdf_rules_index$"
INFERRED_TABLE = "rdf_inferred$"
SUPPORT_TABLE = "rdf_infer_support$"

#: The maintenance policies accepted by ``create_rules_index``.
MAINTENANCE_POLICIES = ("manual", "incremental", "rebuild")

#: Fixpoint guard: forward chaining aborts past this many rounds, which
#: only a pathological recursive rulebase can reach.
MAX_ROUNDS = 1000


@dataclass(frozen=True)
class RulesIndex:
    """One catalog row: an index over (models, rulebases)."""

    index_name: str
    model_names: tuple[str, ...]
    rulebase_names: tuple[str, ...]
    inferred_count: int
    maintain: str = "manual"

    def covers(self, model_names: Iterable[str],
               rulebase_names: Iterable[str]) -> bool:
        """True when this index was built over supersets of the given
        models and rulebases (Oracle picks any covering index)."""
        return (set(m.lower() for m in model_names)
                <= set(self.model_names)
                and set(r.upper() for r in rulebase_names)
                <= set(r.upper() for r in self.rulebase_names))


@dataclass(frozen=True)
class Derivation:
    """How one inferred triple came to be: the rule and the
    instantiated antecedent triples of one of its derivations."""

    rule_name: str
    antecedents: tuple[Triple, ...]


@dataclass(frozen=True)
class DeltaStats:
    """Outcome of one :meth:`RulesIndexManager.apply_delta` call."""

    index_name: str
    added_base: int
    removed_base: int
    new_inferred: int
    removed_inferred: int
    rederived: int
    support_updates: int


def forward_closure(base: Graph, rules: list[Rule],
                    max_rounds: int = MAX_ROUNDS,
                    provenance: dict[Triple, Derivation] | None = None
                    ) -> Graph:
    """Forward-chain ``rules`` over ``base`` to fixpoint.

    Returns the graph of *inferred* triples only (the closure minus the
    base).  Naive evaluation with a growing working graph; each round
    applies every rule to the current closure and stops when a round
    adds nothing.

    Pass a dict as ``provenance`` to record, for every inferred triple,
    the :class:`Derivation` that first produced it.
    """
    working = Graph(base)
    inferred = Graph()
    for _round in range(max_rounds):
        added = 0
        for rule in rules:
            for triple, antecedents in list(rule.apply_traced(working)):
                if working.add(triple):
                    inferred.add(triple)
                    added += 1
                    if provenance is not None:
                        provenance[triple] = Derivation(
                            rule.rule_name, antecedents)
        if not added:
            return inferred
    raise RulesIndexError(
        f"forward chaining did not converge in {max_rounds} rounds")


def count_support(closure: Graph, inferred: Graph,
                  rules: list[Rule]) -> dict[Triple, int]:
    """Exact support counts over a complete closure.

    ``closure`` is the full graph (base plus inferred); a derivation is
    one (rule, antecedent bindings, consequent position) whose
    antecedents all lie in the closure and whose consequent is an
    inferred (non-base) triple.  This is the from-scratch oracle that
    incremental maintenance must agree with.
    """
    support: dict[Triple, int] = {}
    for rule in rules:
        for bindings in match_patterns(closure, list(rule.antecedents)):
            if rule.filter is not None and not rule.filter.evaluate(
                    bindings):
                continue
            for consequent in rule.consequents:
                try:
                    triple = consequent.substitute(bindings)
                except QueryError:
                    continue
                if triple in inferred:
                    support[triple] = support.get(triple, 0) + 1
    return support


class _IndexState:
    """In-memory closure of one index, cached between delta applies.

    ``token`` is the catalog's ``built_versions`` JSON at the time the
    state was loaded; every apply re-reads the catalog and reloads on
    mismatch, which makes the cache safe under transaction rollbacks
    (a rolled-back apply leaves the catalog token behind the state's).
    """

    __slots__ = ("token", "closure", "inferred", "support", "rules")

    def __init__(self, token: str | None, closure: Graph, inferred: Graph,
                 support: dict[Triple, int], rules: list[Rule]) -> None:
        self.token = token
        self.closure = closure      # base ∪ inferred
        self.inferred = inferred    # inferred subset
        self.support = support
        self.rules = rules


class RulesIndexManager:
    """CREATE_RULES_INDEX / lookup / drop / incremental maintenance."""

    def __init__(self, store: "RDFStore") -> None:
        self._store = store
        self._db = store.database
        self._rulebases = RulebaseManager(self._db)
        self._states: dict[str, _IndexState] = {}
        self._maint_lock = threading.RLock()
        self._ensure_tables()

    @property
    def rulebases(self) -> RulebaseManager:
        return self._rulebases

    def _ensure_tables(self) -> None:
        if self._db.read_only:
            # Pooled readers cannot (and must not) run DDL; the writer
            # created the tables, or there are no rules indexes at all.
            return
        self._db.execute(
            f"CREATE TABLE IF NOT EXISTS {quote_identifier(INDEX_CATALOG)} ("
            " index_name TEXT PRIMARY KEY,"
            " model_names TEXT NOT NULL,"
            " rulebase_names TEXT NOT NULL,"
            " inferred_count INTEGER NOT NULL DEFAULT 0,"
            " source_triple_count INTEGER NOT NULL DEFAULT 0,"
            " maintain TEXT NOT NULL DEFAULT 'manual',"
            " built_versions TEXT)")
        self._migrate_catalog()
        self._db.execute(
            f"CREATE TABLE IF NOT EXISTS {quote_identifier(INFERRED_TABLE)} ("
            " index_name TEXT NOT NULL,"
            " s_id INTEGER NOT NULL,"
            " p_id INTEGER NOT NULL,"
            " o_id INTEGER NOT NULL,"
            " rule_name TEXT,"
            " antecedents TEXT,"
            " PRIMARY KEY (index_name, s_id, p_id, o_id))")
        self._db.execute(
            f"CREATE TABLE IF NOT EXISTS {quote_identifier(SUPPORT_TABLE)} ("
            " index_name TEXT NOT NULL,"
            " s_id INTEGER NOT NULL,"
            " p_id INTEGER NOT NULL,"
            " o_id INTEGER NOT NULL,"
            " support INTEGER NOT NULL,"
            " PRIMARY KEY (index_name, s_id, p_id, o_id))")

    def _migrate_catalog(self) -> None:
        """Add the maintenance columns to a pre-existing catalog."""
        existing = {row["name"] for row in self._db.query_all(
            f"PRAGMA table_info({quote_identifier(INDEX_CATALOG)})")}
        for column, definition in (
                ("maintain", "TEXT NOT NULL DEFAULT 'manual'"),
                ("built_versions", "TEXT")):
            if column not in existing:
                self._db.execute(
                    f"ALTER TABLE {quote_identifier(INDEX_CATALOG)} "
                    f"ADD COLUMN {column} {definition}")

    def _catalog_ready(self) -> bool:
        return self._db.table_exists(INDEX_CATALOG)

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def create_rules_index(self, index_name: str,
                           model_names: Iterable[str],
                           rulebase_names: Iterable[str],
                           maintain: str = "manual") -> RulesIndex:
        """``SDO_RDF_INFERENCE.CREATE_RULES_INDEX(name, models, rbs)``.

        ``maintain`` picks the maintenance policy: ``manual`` (stale
        manual indexes refuse queries), ``incremental`` (writes
        propagate deltas), or ``rebuild`` (writes trigger rebuilds).
        """
        if maintain not in MAINTENANCE_POLICIES:
            raise RulesIndexError(
                f"unknown maintenance policy {maintain!r}; pick one of "
                f"{', '.join(MAINTENANCE_POLICIES)}")
        name = index_name.lower()
        if self.exists(name):
            raise RulesIndexError(
                f"rules index {index_name!r} already exists")
        models = tuple(m.lower() for m in model_names)
        rulebases = tuple(rulebase_names)
        with self._db.transaction():
            state, count, source = self._build(name, models, rulebases)
            token = self._versions_token(models)
            state.token = token
            self._db.execute(
                f"INSERT INTO {quote_identifier(INDEX_CATALOG)} "
                "(index_name, model_names, rulebase_names,"
                " inferred_count, source_triple_count, maintain,"
                " built_versions)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (name, ",".join(models), ",".join(rulebases), count,
                 source, maintain, token))
        self._states[name] = state
        self._store.invalidate_rules_maintenance()
        self._db.bump_data_version()
        return self.get(name)

    def _build(self, name: str, models: tuple[str, ...],
               rulebases: tuple[str, ...]
               ) -> tuple[_IndexState, int, int]:
        """Run the closure and materialise it; returns the in-memory
        state plus (inferred, source-triple-count)."""
        observer = self._db.observer
        with observer.span("rules_index.build", index=name,
                           models=",".join(models),
                           rulebases=",".join(rulebases)) as span:
            rules = self._resolve_rules(rulebases)
            base = self._load_base(models)
            provenance: dict[Triple, Derivation] = {}
            with observer.span("rules_index.closure",
                               rules=len(rules)) as closure_span:
                inferred = forward_closure(base, rules,
                                           provenance=provenance)
                closure_span.set("inferred", len(inferred))
            closure = Graph(base)
            for triple in inferred:
                closure.add(triple)
            with observer.span("rules_index.count_support"):
                support = count_support(closure, inferred, rules)
            with observer.span("rules_index.materialize"):
                count = self._materialize(name, inferred, provenance,
                                          support)
            span.set("inferred", count)
            if observer.enabled:
                observer.counter("rules_index.builds").inc()
                observer.counter("rules_index.inferred_triples").inc(
                    count)
            state = _IndexState(None, closure, inferred, support, rules)
            return state, count, self._source_count(models)

    def _load_base(self, models: Iterable[str]) -> Graph:
        """The union of the models' triples, resolved batch-wise."""
        observer = self._db.observer
        base = Graph()
        with observer.span("rules_index.load_base") as span:
            for model_name in models:
                info = self._store.models.get(model_name)
                rows = self._db.query_all(
                    f'SELECT start_node_id, p_value_id, end_node_id '
                    f'FROM "{LINK_TABLE}" WHERE model_id = ?',
                    (info.model_id,))
                wanted = set()
                for row in rows:
                    wanted.update((row[0], row[1], row[2]))
                terms = self._store.values.get_terms(wanted)
                for row in rows:
                    predicate = terms[row[1]]
                    assert isinstance(predicate, URI)
                    base.add(Triple(terms[row[0]], predicate,
                                    terms[row[2]]))
            span.set("base_triples", len(base))
        return base

    def _source_count(self, models: Iterable[str]) -> int:
        return sum(
            self._store.links.count(
                self._store.models.get(model_name).model_id)
            for model_name in models)

    def _versions_token(self, models: Iterable[str]) -> str:
        """The current per-model write versions as a canonical JSON."""
        return json.dumps(self._current_versions(models), sort_keys=True)

    def _current_versions(self, models: Iterable[str]) -> dict[str, int]:
        infos = [self._store.models.get(name) for name in models]
        by_id = self._store.links.model_versions(
            [info.model_id for info in infos])
        return {info.model_name: by_id[info.model_id] for info in infos}

    # ------------------------------------------------------------------
    # staleness
    # ------------------------------------------------------------------

    def is_stale(self, index_name: str) -> bool:
        """True when the underlying models changed since the index was
        built (Oracle marks such indexes invalid until rebuilt).

        Staleness is keyed off the per-model write versions recorded at
        build time — a balanced delete+insert leaves the triple count
        unchanged but still moves the version, so the old count-based
        check's false-fresh case cannot happen.
        """
        index = self.get(index_name)
        row = self._db.query_one(
            f"SELECT * FROM {quote_identifier(INDEX_CATALOG)} "
            "WHERE index_name = ?", (index.index_name,))
        built_token = (row["built_versions"]
                       if "built_versions" in row.keys() else None)
        if built_token is None:
            # Pre-migration row: fall back to the (weaker) count check.
            return int(row["source_triple_count"]) != \
                self._source_count(index.model_names)
        built = {name: int(version)
                 for name, version in json.loads(built_token).items()}
        try:
            current = self._current_versions(index.model_names)
        except ModelNotFoundError:
            return True  # a covered model was dropped
        return current != built

    def maintain(self, index_name: str) -> bool:
        """Bring an index up to date; returns True when work was done.

        A fresh index is left alone; a stale one is rebuilt (there is no
        recorded delta to replay — incremental indexes only go stale
        through paths that bypass the write hook, e.g. DROP model).
        """
        if not self.is_stale(index_name):
            return False
        self.rebuild(index_name)
        return True

    def rebuild(self, index_name: str) -> RulesIndex:
        """Re-run the closure over the current model contents."""
        index = self.get(index_name)
        name = index.index_name
        with self._maint_lock:
            self._states.pop(name, None)
            with self._db.transaction():
                self._db.execute(
                    f"DELETE FROM {quote_identifier(INFERRED_TABLE)} "
                    "WHERE index_name = ?", (name,))
                self._db.execute(
                    f"DELETE FROM {quote_identifier(SUPPORT_TABLE)} "
                    "WHERE index_name = ?", (name,))
                state, count, source = self._build(name,
                                                   index.model_names,
                                                   index.rulebase_names)
                token = self._versions_token(index.model_names)
                state.token = token
                self._db.execute(
                    f"UPDATE {quote_identifier(INDEX_CATALOG)} "
                    "SET inferred_count = ?, source_triple_count = ?, "
                    "built_versions = ? WHERE index_name = ?",
                    (count, source, token, name))
            self._states[name] = state
        self._db.bump_data_version()
        return self.get(index_name)

    def set_maintenance(self, index_name: str, maintain: str) -> RulesIndex:
        """Switch an existing index's maintenance policy.

        Switching a *stale* index to an automatic policy rebuilds it
        first: incremental deltas are only sound relative to a fresh
        baseline, and an auto index is otherwise presumed servable.
        """
        if maintain not in MAINTENANCE_POLICIES:
            raise RulesIndexError(
                f"unknown maintenance policy {maintain!r}; pick one of "
                f"{', '.join(MAINTENANCE_POLICIES)}")
        index = self.get(index_name)
        if maintain != "manual" and self.is_stale(index.index_name):
            self.rebuild(index.index_name)
        self._db.execute(
            f"UPDATE {quote_identifier(INDEX_CATALOG)} "
            "SET maintain = ? WHERE index_name = ?",
            (maintain, index.index_name))
        self._store.invalidate_rules_maintenance()
        return self.get(index_name)

    def auto_maintained(self) -> list[RulesIndex]:
        """The indexes whose policy applies maintenance at write time."""
        if not self._catalog_ready():
            return []
        return [self._index_from_row(row) for row in self._db.query_all(
            f"SELECT * FROM {quote_identifier(INDEX_CATALOG)} "
            "WHERE maintain != 'manual'")]

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------

    def apply_delta(self, index_name: str,
                    added: Iterable[Triple] = (),
                    removed: Iterable[Triple] = (),
                    source_model: "ModelInfo | None" = None
                    ) -> DeltaStats:
        """Propagate a base-triple delta through the index.

        ``added``/``removed`` are the triples whose link rows were
        actually created in / deleted from the covered models (COST-only
        duplicates excluded); the base tables must already reflect the
        change (the write-path hook calls this inside the same
        transaction, right after the ``rdf_link$`` mutation).  Inserts
        propagate semi-naïvely — every new derivation is anchored at a
        delta triple — and deletes run delete-and-rederive (DRed), which
        stays correct under the cyclic support that recursive rules
        (e.g. RDFS transitivity) create.  Support counts and derivation
        provenance are maintained exactly.

        Correctness assumes the index was consistent with the base
        *before* this delta — the inherent contract of differential
        maintenance.  ``source_model`` names the model the write went
        to; it lets a cold-started manager reconstruct the pre-write
        state exactly when the same triple also lives in other covered
        models.

        Runs inside the caller's transaction scope when one is open, so
        a failed base write rolls the maintenance back with it — the
        index is never left half-applied.
        """
        index = self.get(index_name)
        observer = self._db.observer
        with self._maint_lock:
            with observer.span("rules_index.apply_delta",
                               index=index.index_name) as span:
                try:
                    with self._db.transaction():
                        stats = self._apply_delta_locked(
                            index, list(added), list(removed),
                            source_model)
                except BaseException:
                    # The state was mutated in place under the old
                    # token; a mid-apply failure rolls the tables back
                    # but not the memory — drop it so the next use
                    # reloads from the (rolled-back) tables.
                    self._states.pop(index.index_name, None)
                    raise
                span.set("added_base", stats.added_base)
                span.set("removed_base", stats.removed_base)
                span.set("new_inferred", stats.new_inferred)
                span.set("removed_inferred", stats.removed_inferred)
                span.set("rederived", stats.rederived)
                if observer.enabled:
                    observer.counter("rules_index.delta_applied").inc()
                    observer.counter(
                        "rules_index.delta_added_triples").inc(
                        stats.added_base)
                    observer.counter(
                        "rules_index.delta_removed_triples").inc(
                        stats.removed_base)
                    observer.counter(
                        "rules_index.rederive_triples").inc(
                        stats.rederived)
        self._db.bump_data_version()
        return stats

    def _apply_delta_locked(self, index: RulesIndex,
                            added: list[Triple],
                            removed: list[Triple],
                            source_model: "ModelInfo | None" = None
                            ) -> DeltaStats:
        state, warm = self._state_for(index)
        models = [self._store.models.get(name)
                  for name in index.model_names]
        if not warm:
            # A cold load inside the write transaction already sees the
            # delta in the base tables; rewind it so the state matches
            # what the index was built against.
            self._rewind_state(state, models, added, removed,
                               source_model)
        closure, inferred, support = (state.closure, state.inferred,
                                      state.support)
        rules = state.rules

        # Effective deltas on the *union* of the covered models: the
        # caller reports per-model writes, but a triple only joins the
        # union when no covered model held it before, and only leaves
        # when no covered model holds it still.
        eff_added: list[Triple] = []
        for triple in dict.fromkeys(added):
            in_base = triple in closure and triple not in inferred
            if not in_base and self._present_in_models(triple, models):
                eff_added.append(triple)
        eff_removed: list[Triple] = []
        for triple in dict.fromkeys(removed):
            in_base = triple in closure and triple not in inferred
            if in_base and not self._present_in_models(triple, models):
                eff_removed.append(triple)

        # ---- delete phase: DRed ---------------------------------------
        # 1. Overdelete: every inferred triple with any derivation
        #    touching a deleted (or overdeleted) triple, propagated
        #    against the still-intact old closure.
        over: set[Triple] = set()
        frontier: list[Triple] = list(eff_removed)
        while frontier:
            next_frontier: list[Triple] = []
            for gone in frontier:
                for _ri, rule, bindings in self._anchored_matches(
                        rules, closure, gone):
                    for consequent in rule.consequents:
                        try:
                            triple = consequent.substitute(bindings)
                        except QueryError:
                            continue
                        if triple in inferred and triple not in over:
                            over.add(triple)
                            next_frontier.append(triple)
            frontier = next_frontier

        for triple in eff_removed:
            closure.discard(triple)
        for triple in over:
            closure.discard(triple)
            inferred.discard(triple)

        # 2. Rederive: overdeleted triples (and removed base triples)
        #    that still have a derivation within the surviving closure
        #    come back; restores cascade to fixpoint.
        candidates = set(over) | set(eff_removed)
        restored: dict[Triple, Derivation] = {}
        changed = True
        while changed and candidates:
            changed = False
            for triple in list(candidates):
                derivation = self._find_derivation(triple, closure, rules)
                if derivation is not None:
                    closure.add(triple)
                    inferred.add(triple)
                    restored[triple] = derivation
                    candidates.discard(triple)
                    changed = True

        # 3. Exact support for the restored triples, against the
        #    closure-after-delete.  Survivors keep every derivation
        #    (any derivation through a deleted triple would have
        #    overdeleted them), so their counts stand.
        for triple in restored:
            support[triple] = self._count_derivations(triple, closure,
                                                      rules)
        for triple in over:
            if triple not in restored:
                support.pop(triple, None)

        # ---- insert phase: semi-naïve propagation ---------------------
        dropped_to_base: set[Triple] = set()
        for triple in eff_added:
            if triple in inferred:
                # An inferred triple asserted as a base fact: the row
                # leaves the index (the base tables now answer for it).
                inferred.discard(triple)
                support.pop(triple, None)
                dropped_to_base.add(triple)
                restored.pop(triple, None)

        new_inferred: dict[Triple, Derivation] = {}
        support_changed: set[Triple] = set()
        seen_derivations: set[tuple] = set()
        queue: deque[Triple] = deque()
        for triple in eff_added:
            if triple in closure:
                # Was already present as an inferred triple: the closure
                # is unchanged, only the row's classification moved
                # (handled above) — anchoring it would double-count
                # derivations that were already counted.
                continue
            closure.add(triple)
            queue.append(triple)
        while queue:
            anchor = queue.popleft()
            # Materialise before mutating: the loop body grows the
            # closure the generator is matching against.  Derivations
            # through triples added mid-anchor are still found — every
            # new triple is enqueued and anchored in its own turn.
            for rule_index, rule, bindings in list(
                    self._anchored_matches(rules, closure, anchor)):
                antecedents = tuple(
                    pattern.substitute(bindings)
                    for pattern in rule.antecedents)
                key = (rule_index, antecedents)
                if key in seen_derivations:
                    continue
                seen_derivations.add(key)
                for consequent in rule.consequents:
                    try:
                        triple = consequent.substitute(bindings)
                    except QueryError:
                        continue
                    if triple in inferred:
                        support[triple] = support.get(triple, 0) + 1
                        support_changed.add(triple)
                    elif triple in closure:
                        continue  # a base fact needs no support row
                    else:
                        closure.add(triple)
                        inferred.add(triple)
                        support[triple] = 1
                        new_inferred[triple] = Derivation(rule.rule_name,
                                                          antecedents)
                        queue.append(triple)

        # ---- write the diff -------------------------------------------
        deletes = (over - set(restored)) | dropped_to_base
        inserts: dict[Triple, Derivation] = {}
        for triple, derivation in restored.items():
            inserts[triple] = derivation
        inserts.update(new_inferred)
        deletes -= set(inserts)
        support_updates = {
            triple: support[triple] for triple in support_changed
            if triple in inferred and triple not in inserts}
        self._write_delta(index, deletes, inserts, support_updates,
                          support)
        token = self._versions_token(index.model_names)
        self._db.execute(
            f"UPDATE {quote_identifier(INDEX_CATALOG)} "
            "SET inferred_count = ?, source_triple_count = ?, "
            "built_versions = ? WHERE index_name = ?",
            (len(inferred), self._source_count(index.model_names),
             token, index.index_name))
        state.token = token
        return DeltaStats(
            index_name=index.index_name,
            added_base=len(eff_added), removed_base=len(eff_removed),
            new_inferred=len(new_inferred),
            removed_inferred=len(deletes),
            rederived=len(restored),
            support_updates=len(support_updates))

    def _write_delta(self, index: RulesIndex, deletes: set[Triple],
                     inserts: dict[Triple, Derivation],
                     support_updates: dict[Triple, int],
                     support: dict[Triple, int]) -> None:
        values = self._store.values
        name = index.index_name
        delete_rows = []
        for triple in deletes:
            ids = [values.find_id(term) for term in triple]
            if None in ids:
                continue  # never materialised; nothing to delete
            delete_rows.append((name, *ids))
        if delete_rows:
            for table in (INFERRED_TABLE, SUPPORT_TABLE):
                self._db.executemany(
                    f"DELETE FROM {quote_identifier(table)} "
                    "WHERE index_name = ? AND s_id = ? AND p_id = ? "
                    "AND o_id = ?", delete_rows)
        inferred_rows = []
        support_rows = []
        for triple, derivation in inserts.items():
            ids = tuple(values.lookup_or_insert(term) for term in triple)
            inferred_rows.append(
                (name, *ids, derivation.rule_name,
                 serialize_ntriples(derivation.antecedents)))
            support_rows.append((name, *ids, support.get(triple, 1)))
        for triple, count in support_updates.items():
            ids = tuple(values.lookup_or_insert(term) for term in triple)
            support_rows.append((name, *ids, count))
        if inferred_rows:
            self._db.executemany(
                f"INSERT OR REPLACE INTO "
                f"{quote_identifier(INFERRED_TABLE)} "
                "VALUES (?, ?, ?, ?, ?, ?)", inferred_rows)
        if support_rows:
            self._db.executemany(
                f"INSERT OR REPLACE INTO "
                f"{quote_identifier(SUPPORT_TABLE)} "
                "VALUES (?, ?, ?, ?, ?)", support_rows)

    # -- delta-engine helpers ------------------------------------------

    def _rewind_state(self, state: "_IndexState",
                      models: "list[ModelInfo]",
                      added: list[Triple], removed: list[Triple],
                      source_model: "ModelInfo | None") -> None:
        """Undo a pending base delta in a cold-loaded state.

        The closure was just read from the post-write base tables, but
        ``apply_delta`` propagates from the pre-write state the index
        was built against.  Added triples leave the closure again —
        unless they are classified as inferred (the pre-state already
        derived them), or, when the writing model is known, another
        covered model still asserts them (the union held them before
        the write too).  Removed triples rejoin it.
        """
        others = None
        if source_model is not None:
            others = [info for info in models
                      if info.model_id != source_model.model_id]
        for triple in dict.fromkeys(added):
            if triple in state.inferred:
                continue
            if triple not in state.closure:
                continue
            if others and self._present_in_models(triple, others):
                continue
            state.closure.discard(triple)
        for triple in dict.fromkeys(removed):
            if triple not in state.closure:
                state.closure.add(triple)

    def _present_in_models(self, triple: Triple,
                           models: "list[ModelInfo]") -> bool:
        """Does any covered model currently hold ``triple``?"""
        values = self._store.values
        ids = [values.find_id(term) for term in triple]
        if None in ids:
            return False
        subject_id, predicate_id, object_id = ids
        return any(
            self._store.links.find(info.model_id, subject_id,
                                   predicate_id, object_id) is not None
            for info in models)

    @staticmethod
    def _anchored_matches(rules: list[Rule], graph: Graph,
                          anchor: Triple
                          ) -> Iterator[tuple[int, Rule, dict]]:
        """Every rule firing with some antecedent matching ``anchor``
        and the remaining antecedents satisfied in ``graph``."""
        for rule_index, rule in enumerate(rules):
            for position, antecedent in enumerate(rule.antecedents):
                seed = unify(antecedent, anchor)
                if seed is None:
                    continue
                others = [pattern for i, pattern
                          in enumerate(rule.antecedents) if i != position]
                for bindings in match_patterns(graph, others, seed):
                    if rule.filter is not None and \
                            not rule.filter.evaluate(bindings):
                        continue
                    yield rule_index, rule, bindings

    @staticmethod
    def _find_derivation(triple: Triple, graph: Graph,
                         rules: list[Rule]) -> Derivation | None:
        """One derivation of ``triple`` from ``graph``, or None.

        ``triple`` itself must not be in ``graph`` (DRed removes the
        candidate before asking, which rules out self-support)."""
        for rule in rules:
            for consequent in rule.consequents:
                seed = unify(consequent, triple)
                if seed is None:
                    continue
                for bindings in match_patterns(
                        graph, list(rule.antecedents), seed):
                    if rule.filter is not None and \
                            not rule.filter.evaluate(bindings):
                        continue
                    return Derivation(
                        rule.rule_name,
                        tuple(pattern.substitute(bindings)
                              for pattern in rule.antecedents))
        return None

    @staticmethod
    def _count_derivations(triple: Triple, graph: Graph,
                           rules: list[Rule]) -> int:
        """Exact number of derivations of ``triple`` from ``graph``."""
        count = 0
        for rule in rules:
            for consequent in rule.consequents:
                seed = unify(consequent, triple)
                if seed is None:
                    continue
                for bindings in match_patterns(
                        graph, list(rule.antecedents), seed):
                    if rule.filter is not None and \
                            not rule.filter.evaluate(bindings):
                        continue
                    count += 1
        return count

    # -- cached state ---------------------------------------------------

    def _state_for(self, index: RulesIndex) -> tuple[_IndexState, bool]:
        """The in-memory closure, revalidated against the catalog.

        Returns ``(state, warm)``; ``warm`` means the state was cached
        and matches the catalog, i.e. it reflects the base *as of the
        last build/apply*.  A cold load reads the current tables — when
        a delta is being applied, that read happens inside the write
        transaction and therefore already contains the delta, which the
        caller must rewind before propagating.

        A fresh catalog read per call makes the cache rollback-safe:
        if a previous apply's transaction rolled back after mutating
        the cached state, its token no longer matches the catalog and
        the state reloads from the tables.
        """
        row = self._db.query_one(
            f"SELECT built_versions FROM "
            f"{quote_identifier(INDEX_CATALOG)} WHERE index_name = ?",
            (index.index_name,))
        token = row["built_versions"] if row is not None else None
        state = self._states.get(index.index_name)
        if state is not None and token is not None \
                and state.token == token:
            return state, True
        state = self._load_state(index)
        state.token = token
        self._states[index.index_name] = state
        return state, False

    def _load_state(self, index: RulesIndex) -> _IndexState:
        observer = self._db.observer
        with observer.span("rules_index.load_state",
                           index=index.index_name):
            rules = self._resolve_rules(index.rulebase_names)
            base = self._load_base(index.model_names)
            rows = self._db.query_all(
                f"SELECT i.s_id, i.p_id, i.o_id, s.support AS support "
                f"FROM {quote_identifier(INFERRED_TABLE)} i "
                f"LEFT JOIN {quote_identifier(SUPPORT_TABLE)} s "
                "ON s.index_name = i.index_name AND s.s_id = i.s_id "
                "AND s.p_id = i.p_id AND s.o_id = i.o_id "
                "WHERE i.index_name = ?", (index.index_name,))
            wanted = set()
            for row in rows:
                wanted.update((row[0], row[1], row[2]))
            terms = self._store.values.get_terms(wanted)
            closure = Graph(base)
            inferred = Graph()
            support: dict[Triple, int] = {}
            missing_support = False
            for row in rows:
                predicate = terms[row[1]]
                assert isinstance(predicate, URI)
                triple = Triple(terms[row[0]], predicate, terms[row[2]])
                closure.add(triple)
                inferred.add(triple)
                if row["support"] is None:
                    missing_support = True
                else:
                    support[triple] = int(row["support"])
            if missing_support:
                # Index built before support tracking existed: recount
                # from scratch once and persist, so deltas stay exact.
                support = count_support(closure, inferred, rules)
                self._persist_support(index.index_name, support)
            return _IndexState(None, closure, inferred, support, rules)

    def _persist_support(self, index_name: str,
                         support: dict[Triple, int]) -> None:
        values = self._store.values
        rows = [(index_name,
                 *(values.lookup_or_insert(term) for term in triple),
                 count) for triple, count in support.items()]
        self._db.executemany(
            f"INSERT OR REPLACE INTO {quote_identifier(SUPPORT_TABLE)} "
            "VALUES (?, ?, ?, ?, ?)", rows)

    def _resolve_rules(self, rulebase_names: tuple[str, ...]) -> list[Rule]:
        rules: list[Rule] = []
        for rulebase_name in rulebase_names:
            if rulebase_name.upper() == RDFS_RULEBASE_NAME:
                rules.extend(rdfs_rules())
            else:
                rules.extend(self._rulebases.rules(rulebase_name))
        return rules

    def _materialize(self, index_name: str, inferred: Graph,
                     provenance: dict[Triple, Derivation] | None = None,
                     support: dict[Triple, int] | None = None) -> int:
        values = self._store.values
        rows = []
        support_rows = []
        for triple in inferred:
            derivation = (provenance or {}).get(triple)
            rule_name = None
            antecedents_text = None
            if derivation is not None:
                rule_name = derivation.rule_name
                antecedents_text = serialize_ntriples(
                    derivation.antecedents)
            ids = (values.lookup_or_insert(triple.subject),
                   values.lookup_or_insert(triple.predicate),
                   values.lookup_or_insert(triple.object))
            rows.append((index_name, *ids, rule_name, antecedents_text))
            if support is not None:
                support_rows.append(
                    (index_name, *ids, support.get(triple, 0)))
        self._db.executemany(
            f"INSERT OR IGNORE INTO {quote_identifier(INFERRED_TABLE)} "
            "VALUES (?, ?, ?, ?, ?, ?)", rows)
        if support_rows:
            self._db.executemany(
                f"INSERT OR REPLACE INTO "
                f"{quote_identifier(SUPPORT_TABLE)} "
                "VALUES (?, ?, ?, ?, ?)", support_rows)
        return len(rows)

    # ------------------------------------------------------------------
    # explanations
    # ------------------------------------------------------------------

    def explain(self, index_name: str,
                triple: Triple) -> Derivation | None:
        """Why is ``triple`` in the rules index?

        Returns the recorded :class:`Derivation` (rule name plus the
        instantiated antecedents of one derivation), or None when the
        triple is not an inferred triple of this index.
        """
        values = self._store.values
        ids = [values.find_id(term) for term in triple]
        if None in ids:
            return None
        row = self._db.query_one(
            f"SELECT rule_name, antecedents FROM "
            f"{quote_identifier(INFERRED_TABLE)} "
            "WHERE index_name = ? AND s_id = ? AND p_id = ? "
            "AND o_id = ?", (index_name.lower(), *ids))
        if row is None or row["rule_name"] is None:
            return None
        antecedents = tuple(parse_ntriples(row["antecedents"]))
        return Derivation(row["rule_name"], antecedents)

    def explain_tree(self, index_name: str, triple: Triple,
                     max_depth: int = 20) -> list[tuple[int, Triple,
                                                        str | None]]:
        """A depth-annotated proof tree for an inferred triple.

        Each entry is (depth, triple, rule_name); rule_name is None for
        base facts.  Antecedents that are themselves inferred are
        expanded recursively up to ``max_depth``.
        """
        tree: list[tuple[int, Triple, str | None]] = []
        self._explain_into(index_name, triple, 0, max_depth, tree,
                           seen=set())
        return tree

    def _explain_into(self, index_name: str, triple: Triple, depth: int,
                      max_depth: int, tree: list, seen: set) -> None:
        derivation = self.explain(index_name, triple)
        rule_name = None if derivation is None else derivation.rule_name
        tree.append((depth, triple, rule_name))
        if derivation is None or depth >= max_depth or triple in seen:
            return
        seen.add(triple)
        for antecedent in derivation.antecedents:
            self._explain_into(index_name, antecedent, depth + 1,
                               max_depth, tree, seen)

    # ------------------------------------------------------------------
    # lookup / maintenance
    # ------------------------------------------------------------------

    def exists(self, index_name: str) -> bool:
        if not self._catalog_ready():
            return False
        return self._db.query_one(
            f"SELECT 1 FROM {quote_identifier(INDEX_CATALOG)} "
            "WHERE index_name = ?", (index_name.lower(),)) is not None

    def get(self, index_name: str) -> RulesIndex:
        row = None
        if self._catalog_ready():
            row = self._db.query_one(
                f"SELECT * FROM {quote_identifier(INDEX_CATALOG)} "
                "WHERE index_name = ?", (index_name.lower(),))
        if row is None:
            raise RulesIndexError(
                f"rules index {index_name!r} does not exist")
        return self._index_from_row(row)

    def list_indexes(self) -> list[RulesIndex]:
        """Every catalog row (CLI ``rules-index status`` backend)."""
        if not self._catalog_ready():
            return []
        return [self._index_from_row(row) for row in self._db.query_all(
            f"SELECT * FROM {quote_identifier(INDEX_CATALOG)} "
            "ORDER BY index_name")]

    def drop_rules_index(self, index_name: str) -> None:
        name = index_name.lower()
        self.get(name)
        self._db.execute(
            f"DELETE FROM {quote_identifier(INFERRED_TABLE)} "
            "WHERE index_name = ?", (name,))
        self._db.execute(
            f"DELETE FROM {quote_identifier(SUPPORT_TABLE)} "
            "WHERE index_name = ?", (name,))
        self._db.execute(
            f"DELETE FROM {quote_identifier(INDEX_CATALOG)} "
            "WHERE index_name = ?", (name,))
        self._states.pop(name, None)
        self._store.invalidate_rules_maintenance()
        self._db.bump_data_version()

    def find_covering(self, model_names: Iterable[str],
                      rulebase_names: Iterable[str]) -> RulesIndex | None:
        """An existing index covering the given models and rulebases."""
        if not self._catalog_ready():
            return None
        for row in self._db.query_all(
                f"SELECT * FROM {quote_identifier(INDEX_CATALOG)}"):
            index = self._index_from_row(row)
            if index.covers(model_names, rulebase_names):
                return index
        return None

    def inferred_triples(self, index_name: str) -> Iterator[Triple]:
        """The materialised inferred triples of an index."""
        values = self._store.values
        rows = self._db.query_all(
            f"SELECT s_id, p_id, o_id FROM "
            f"{quote_identifier(INFERRED_TABLE)} "
            "WHERE index_name = ?", (index_name.lower(),))
        wanted = set()
        for row in rows:
            wanted.update((row[0], row[1], row[2]))
        terms = values.get_terms(wanted)
        for row in rows:
            predicate = terms[row[1]]
            assert isinstance(predicate, URI)
            yield Triple(terms[row[0]], predicate, terms[row[2]])

    def support_counts(self, index_name: str) -> dict[Triple, int]:
        """The materialised support counts of an index."""
        values = self._store.values
        rows = self._db.query_all(
            f"SELECT s_id, p_id, o_id, support FROM "
            f"{quote_identifier(SUPPORT_TABLE)} "
            "WHERE index_name = ?", (index_name.lower(),))
        wanted = set()
        for row in rows:
            wanted.update((row[0], row[1], row[2]))
        terms = values.get_terms(wanted)
        counts: dict[Triple, int] = {}
        for row in rows:
            predicate = terms[row[1]]
            assert isinstance(predicate, URI)
            counts[Triple(terms[row[0]], predicate,
                          terms[row[2]])] = int(row["support"])
        return counts

    @staticmethod
    def _index_from_row(row) -> RulesIndex:
        maintain = (row["maintain"]
                    if "maintain" in row.keys() else "manual")
        return RulesIndex(
            index_name=row["index_name"],
            model_names=tuple(row["model_names"].split(",")),
            rulebase_names=tuple(row["rulebase_names"].split(",")),
            inferred_count=int(row["inferred_count"]),
            maintain=maintain or "manual")

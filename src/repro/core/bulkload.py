"""Bulk loading into the central schema.

Section 7.3 of the paper describes the load path for large datasets:
the input is staged in full (temporary tables, deleted at the end of
the loading process) before triples are inserted.  This module
implements that pipeline:

1. read the input and give each distinct term a small integer *stage
   key*: one row per new key in ``rdf_stage_value$``, one row of keys
   per triple in ``rdf_stage$``.  Both are TEMP tables, so staging
   never reaches the main database file or its WAL.  An N-Triples
   file or stream is keyed on its raw tokens
   (:class:`repro.rdf.ntriples.StatementTokens`): a term is built only
   for a token not seen before, never per occurrence.  Turtle, RDF/XML
   and an iterable of triples are keyed on their term objects;
2. merge the staged values into ``rdf_value$`` set-wise (one INSERT ...
   SELECT instead of one lookup per component) and read back each
   stage key's VALUE_ID;
3. register nodes and insert the new link rows set-wise, joining the
   staged keys on their integer primary key and deduplicating against
   existing triples of the model;
4. delete the staging rows.

For large inputs this is much faster than the row-at-a-time
:meth:`repro.core.store.RDFStore.insert_triple` path (the LOAD
benchmark quantifies it), at the cost of the temporary staging space
the paper mentions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Hashable, Iterable

from repro.core.links import LinkType
from repro.core.schema import (
    BLANK_NODE_TABLE,
    LINK_TABLE,
    NODE_TABLE,
    VALUE_TABLE,
)
from repro.core.store import RDFStore
from repro.core.values import _decompose, references_reified
from repro.rdf.canonical import canonical_term
from repro.rdf.ntriples import StatementTokens, term_token
from repro.rdf.terms import RDFTerm
from repro.rdf.triple import Triple

STAGE_TABLE = "rdf_stage$"
STAGE_VALUE_TABLE = "rdf_stage_value$"

#: Distinct terms the staging pass remembers before it starts over.
#: A term seen again after that is staged a second time under a new
#: key; both keys resolve to the same VALUE_ID, so the bound costs
#: staging rows, never a wrong id.
KEY_MAP_BOUND = 100_000

_VALUE_COLUMNS = ("value_name, value_type, literal_type, language_type,"
                  " long_value")

# Single CREATE statements: execute() keeps them legal inside an open
# transaction scope (executescript would not be).
_STAGE_DDL = (
    f'CREATE TEMP TABLE IF NOT EXISTS "{STAGE_VALUE_TABLE}" ('
    " stage_key INTEGER PRIMARY KEY,"
    " value_name TEXT NOT NULL, value_type TEXT NOT NULL,"
    " literal_type TEXT, language_type TEXT, long_value TEXT,"
    " value_id INTEGER)",
    f'CREATE TEMP TABLE IF NOT EXISTS "{STAGE_TABLE}" ('
    " s_key INTEGER NOT NULL, p_key INTEGER NOT NULL,"
    " o_key INTEGER NOT NULL, c_key INTEGER NOT NULL,"
    " link_type TEXT NOT NULL, reif_link TEXT NOT NULL)",
)


@dataclass(frozen=True, slots=True)
class BulkLoadReport:
    """Outcome of one bulk load."""

    staged: int
    new_values: int
    new_links: int
    duplicate_triples: int


class BulkLoader:
    """Set-based loader bound to one store and model."""

    def __init__(self, store: RDFStore, model_name: str,
                 batch_size: int = 10_000) -> None:
        self._store = store
        self._db = store.database
        self._model = store.models.get(model_name)
        self._batch_size = batch_size
        for ddl in _STAGE_DDL:
            self._db.execute(ddl)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def load_file(self, path: str | Path) -> BulkLoadReport:
        """Bulk-load an RDF file; format chosen by extension.

        ``.ttl``/``.turtle`` parse as Turtle, ``.rdf``/``.xml``/``.owl``
        as RDF/XML, everything else as N-Triples.
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix in (".ttl", ".turtle"):
            from repro.rdf.turtle import parse_turtle

            return self.load(parse_turtle(
                path.read_text(encoding="utf-8")))
        if suffix in (".rdf", ".xml", ".owl"):
            from repro.rdf.rdfxml import parse_rdfxml

            return self.load(parse_rdfxml(
                path.read_text(encoding="utf-8")))
        with open(path, encoding="utf-8") as stream:
            return self.load_stream(stream)

    def load_stream(self, stream: IO[str]) -> BulkLoadReport:
        """Bulk-load an N-Triples text stream, keyed on its tokens."""
        tokens = StatementTokens(stream)
        return self._load(tokens, tokens.term, term_token)

    def load(self, triples: Iterable[Triple]) -> BulkLoadReport:
        """Bulk-load parsed triples.

        The entire input is staged before any central-schema insert —
        the same whole-input-first behaviour the paper describes.
        """
        return self._load(triples, _same, _same)

    def _load(self, statements: Iterable[Iterable[Hashable]],
              term_of: Callable[[Hashable], RDFTerm],
              key_of: Callable[[RDFTerm], Hashable]) -> BulkLoadReport:
        observer = self._db.observer
        maintenance = self._store.rules_maintenance_targets(
            self._model.model_name)
        with observer.span("bulkload.load",
                           model=self._model.model_name) as span:
            try:
                with self._db.transaction():
                    with observer.span("bulkload.stage") as stage_span:
                        staged = self._stage(statements, term_of,
                                             key_of)
                        stage_span.set("staged", staged)
                    with observer.span("bulkload.merge_values") as mv_span:
                        new_values = self._merge_values()
                        mv_span.set("new_values", new_values)
                    # Maintenance needs the exact triples this load
                    # creates (duplicates excluded) — snapshot the link
                    # counter so they can be read back after the merge.
                    link_floor = self._max_link_id() if maintenance \
                        else 0
                    with observer.span("bulkload.merge_links") as ml_span:
                        new_links = self._merge_links()
                        ml_span.set("new_links", new_links)
                    self._clear_stage()
                    if new_links:
                        self._store.links.bump_model_version(
                            self._model.model_id)
                    if maintenance and new_links:
                        # Same transaction as the merge: the indexes
                        # and the base rows commit (or roll back)
                        # together.
                        self._store.values.invalidate_cache()
                        self._store.run_rules_maintenance(
                            maintenance,
                            self._new_link_triples(link_floor), (),
                            self._model)
            except BaseException:
                self._discard_staged()
                raise
            self._store.values.invalidate_cache()
            if new_links:
                self._db.bump_data_version()
                # Keep the planner's selectivity estimates current.
                with observer.span("bulkload.analyze"):
                    self._db.analyze()
            span.set("staged", staged)
            span.set("new_links", new_links)
            if observer.enabled:
                observer.counter("bulkload.triples_staged").inc(staged)
                observer.counter("bulkload.links_created").inc(new_links)
        return BulkLoadReport(staged, new_values, new_links,
                              staged - new_links)

    def _max_link_id(self) -> int:
        row = self._db.query_one(
            f'SELECT IFNULL(MAX(link_id), 0) AS floor FROM "{LINK_TABLE}"')
        return row["floor"]

    def _new_link_triples(self, link_floor: int) -> list[Triple]:
        """The triples whose link rows this load created."""
        rows = self._db.query_all(
            "SELECT start_node_id, p_value_id, end_node_id "
            f'FROM "{LINK_TABLE}" WHERE model_id = ? AND link_id > ?',
            (self._model.model_id, link_floor))
        wanted: set[int] = set()
        for row in rows:
            wanted.update((row[0], row[1], row[2]))
        terms = self._store.values.get_terms(wanted)
        return [Triple(terms[row[0]], terms[row[1]], terms[row[2]])
                for row in rows]

    def _clear_stage(self) -> None:
        self._db.execute(f'DELETE FROM "{STAGE_TABLE}"')
        self._db.execute(f'DELETE FROM "{STAGE_VALUE_TABLE}"')

    def _discard_staged(self) -> None:
        """Drop staging rows after a failed load.

        The transaction rollback already removes rows staged inside
        it, but a load that fails while nested in a caller's
        transaction (SAVEPOINT rollback) — or is interrupted between
        scopes — must not leak its staging rows into the next load.
        Best effort: a dead connection is ignored, the next load's
        rollback protection still holds.
        """
        from repro.errors import StorageError

        try:
            self._clear_stage()
        except StorageError:  # pragma: no cover - dead connection
            pass

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    def _stage(self, statements: Iterable[Iterable[Hashable]],
               term_of: Callable[[Hashable], RDFTerm],
               key_of: Callable[[RDFTerm], Hashable]) -> int:
        """Key every distinct term once and stage each triple as keys.

        A statement is three term keys: tokens or term objects.
        ``term_of`` reads a key not seen before into its term, and
        ``key_of`` keys a canonical form.  RDF inputs repeat subjects,
        predicates and objects heavily, so a term is read, decomposed,
        classified and written once per key, not once per triple.
        REIF_LINK is decided here, exactly, with the rule the integrity
        checker enforces.
        """
        value_sql = (f'INSERT INTO "{STAGE_VALUE_TABLE}" '
                     f"(stage_key, {_VALUE_COLUMNS}) "
                     "VALUES (?, ?, ?, ?, ?, ?)")
        insert_sql = (f'INSERT INTO "{STAGE_TABLE}" '
                      "(s_key, p_key, o_key, c_key, link_type, reif_link)"
                      " VALUES (?, ?, ?, ?, ?, ?)")
        batch_counter = self._db.observer.counter(
            "bulkload.batches", "staging batches written")
        value_rows: list[tuple] = []
        rows: list[tuple] = []
        staged = 0
        # key -> (stage key, is a DBUri, its canonical form's stage key)
        keys: dict[Hashable, tuple[int, bool, int]] = {}
        link_types: dict[Hashable, str] = {}

        next_key = itertools.count(1).__next__

        def stage_term(key: Hashable,
                       term: RDFTerm) -> tuple[int, bool, int]:
            if len(keys) >= KEY_MAP_BOUND:
                keys.clear()
                link_types.clear()
            row = _decompose(term)
            stage_key = next_key()
            value_rows.append((stage_key,) + row)
            canonical = canonical_term(term)
            if canonical is term:
                canon_key = stage_key
            else:
                canon_ref = key_of(canonical)
                canon_key = (keys.get(canon_ref)
                             or stage_term(canon_ref, canonical))[0]
            entry = keys[key] = (stage_key, references_reified(row[:1]),
                                 canon_key)
            return entry

        def flush() -> None:
            if value_rows:
                self._db.executemany(value_sql, value_rows)
            self._db.executemany(insert_sql, rows)
            batch_counter.inc()
            value_rows.clear()
            rows.clear()

        for subject, predicate, obj in statements:
            s_key, s_ref, _ = (keys.get(subject)
                               or stage_term(subject, term_of(subject)))
            p_key, p_ref, _ = (keys.get(predicate)
                               or stage_term(predicate, term_of(predicate)))
            o_key, o_ref, c_key = (keys.get(obj)
                                   or stage_term(obj, term_of(obj)))
            link_type = link_types.get(predicate)
            if link_type is None:
                link_type = link_types[predicate] = \
                    LinkType.for_predicate(term_of(predicate)).value
            rows.append((s_key, p_key, o_key, c_key, link_type,
                         "Y" if s_ref or p_ref or o_ref else "N"))
            staged += 1
            if len(rows) >= self._batch_size:
                flush()
        if rows:
            flush()
        return staged

    def _merge_values(self) -> int:
        """INSERT ... SELECT the staged values, then key them to ids."""
        new_values = self._db.execute(
            f'INSERT OR IGNORE INTO "{VALUE_TABLE}" ({_VALUE_COLUMNS}) '
            f'SELECT {_VALUE_COLUMNS} FROM "{STAGE_VALUE_TABLE}"'
        ).rowcount
        # The match runs through rdf_value_uniq, whose key is these
        # very expressions.
        self._db.execute(
            f'UPDATE "{STAGE_VALUE_TABLE}" AS sv SET value_id = ('
            f'SELECT v.value_id FROM "{VALUE_TABLE}" v '
            "WHERE v.value_name = sv.value_name "
            "AND v.value_type = sv.value_type "
            "AND IFNULL(v.literal_type, '') = IFNULL(sv.literal_type, '') "
            "AND IFNULL(v.language_type, '') "
            "= IFNULL(sv.language_type, '') "
            "AND IFNULL(v.long_value, '') = IFNULL(sv.long_value, ''))")
        return new_values

    def _merge_links(self) -> int:
        """Register nodes and insert the deduplicated link rows."""
        model_id = self._model.model_id
        # Nodes: every staged subject and object value.
        self._db.execute(
            f'INSERT OR IGNORE INTO "{NODE_TABLE}" (node_id, node_type) '
            f'SELECT value_id, value_type FROM "{STAGE_VALUE_TABLE}" '
            f'WHERE stage_key IN (SELECT s_key FROM "{STAGE_TABLE}" '
            f'UNION ALL SELECT o_key FROM "{STAGE_TABLE}")')
        # Blank nodes of this model: a blank node is only ever a
        # subject or an object, and is its own canonical form.
        self._db.execute(
            f'INSERT OR IGNORE INTO "{BLANK_NODE_TABLE}" '
            "(value_id, model_id, orig_label) "
            "SELECT value_id, ?, SUBSTR(value_name, 3) "
            f'FROM "{STAGE_VALUE_TABLE}" WHERE value_type = \'BN\'',
            (model_id,))
        # COST starts at 0: bulk-loaded triples have no application rows.
        # rdf_link_uniq drops a triple staged twice or already stored.
        return self._db.execute(
            f'INSERT OR IGNORE INTO "{LINK_TABLE}" '
            "(start_node_id, p_value_id, end_node_id,"
            " canon_end_node_id, link_type, cost, context,"
            " reif_link, model_id) "
            "SELECT s.value_id, p.value_id, o.value_id, "
            "c.value_id, st.link_type, 0, 'D', st.reif_link, ? "
            f'FROM "{STAGE_TABLE}" st '
            f'JOIN "{STAGE_VALUE_TABLE}" s ON s.stage_key = st.s_key '
            f'JOIN "{STAGE_VALUE_TABLE}" p ON p.stage_key = st.p_key '
            f'JOIN "{STAGE_VALUE_TABLE}" o ON o.stage_key = st.o_key '
            f'JOIN "{STAGE_VALUE_TABLE}" c ON c.stage_key = st.c_key',
            (model_id,)).rowcount


def _same(key):
    """The term path's key and term: the term object itself."""
    return key


def bulk_load_ntriples(store: RDFStore, model_name: str,
                       path: str | Path) -> BulkLoadReport:
    """One-call convenience: bulk-load an N-Triples file into a model."""
    return BulkLoader(store, model_name).load_file(path)

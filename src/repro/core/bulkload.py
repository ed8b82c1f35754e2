"""Bulk loading into the central schema.

Section 7.3 of the paper describes the load path for large datasets:
the input is staged in full (temporary tables, deleted at the end of
the loading process) before triples are inserted.  This module
implements that pipeline:

1. parse the input (N-Triples file/stream or an iterable of triples)
   into the staging table ``rdf_stage$``;
2. merge new text values into ``rdf_value$`` set-wise (one INSERT ...
   SELECT instead of one lookup per component);
3. register nodes and insert the new link rows set-wise, deduplicating
   against existing triples of the model;
4. drop the staging rows.

For large inputs this is much faster than the row-at-a-time
:meth:`repro.core.store.RDFStore.insert_triple` path (the LOAD
benchmark quantifies it), at the cost of the temporary staging space
the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from repro.core.links import LinkType
from repro.core.schema import (
    BLANK_NODE_TABLE,
    LINK_TABLE,
    NODE_TABLE,
    VALUE_TABLE,
)
from repro.core.store import RDFStore
from repro.core.values import _decompose
from repro.rdf.canonical import canonical_term
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.triple import Triple

STAGE_TABLE = "rdf_stage$"

_STAGE_DDL = f"""
CREATE TABLE IF NOT EXISTS "{STAGE_TABLE}" (
    stage_id   INTEGER PRIMARY KEY,
    s_name     TEXT NOT NULL, s_type TEXT NOT NULL,
    s_ltype    TEXT, s_lang TEXT, s_long TEXT,
    p_name     TEXT NOT NULL, p_type TEXT NOT NULL,
    p_ltype    TEXT, p_lang TEXT, p_long TEXT,
    o_name     TEXT NOT NULL, o_type TEXT NOT NULL,
    o_ltype    TEXT, o_lang TEXT, o_long TEXT,
    c_name     TEXT NOT NULL, c_type TEXT NOT NULL,
    c_ltype    TEXT, c_lang TEXT, c_long TEXT,
    link_type  TEXT NOT NULL
);
"""


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
        # A single CREATE TABLE: execute() keeps it legal inside an
        # open transaction scope (executescript would not be).
        self._db.execute(_STAGE_DDL)

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
            return self.load(parse_ntriples(stream))

    def load_stream(self, stream: IO[str]) -> BulkLoadReport:
        """Bulk-load an N-Triples text stream."""
        return self.load(parse_ntriples(stream))

    def load(self, triples: Iterable[Triple]) -> BulkLoadReport:
        """Bulk-load parsed triples.

        The entire input is staged before any central-schema insert —
        the same whole-input-first behaviour the paper describes.
        """
        observer = self._db.observer
        maintenance = self._store.rules_maintenance_targets(
            self._model.model_name)
        with observer.span("bulkload.load",
                           model=self._model.model_name) as span:
            try:
                with self._db.transaction():
                    with observer.span("bulkload.stage") as stage_span:
                        staged = self._stage(triples)
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
                    self._fix_reif_flags()
                    self._db.execute(f'DELETE FROM "{STAGE_TABLE}"')
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
            self._db.execute(f'DELETE FROM "{STAGE_TABLE}"')
        except StorageError:  # pragma: no cover - dead connection
            pass

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    def _stage(self, triples: Iterable[Triple]) -> int:
        rows: list[tuple] = []
        staged = 0
        insert_sql = (
            f'INSERT INTO "{STAGE_TABLE}" '
            "(s_name, s_type, s_ltype, s_lang, s_long,"
            " p_name, p_type, p_ltype, p_lang, p_long,"
            " o_name, o_type, o_ltype, o_lang, o_long,"
            " c_name, c_type, c_ltype, c_lang, c_long, link_type)"
            " VALUES (" + ", ".join("?" * 21) + ")")
        batch_counter = self._db.observer.counter(
            "bulkload.batches", "staging batches written")
        # Per-term memoisation: RDF inputs repeat subjects, predicates
        # and objects heavily, and this loop is the load's dominant
        # Python cost (decompose + classify per component).  Bounded —
        # a pathological all-distinct input cannot grow them without
        # limit.
        dec_cache: dict = {}
        canon_cache: dict = {}
        type_cache: dict = {}
        for triple in triples:
            subject, predicate, obj = (triple.subject, triple.predicate,
                                       triple.object)
            s_row = dec_cache.get(subject)
            if s_row is None:
                s_row = dec_cache[subject] = _decompose(subject)
            p_row = dec_cache.get(predicate)
            if p_row is None:
                p_row = dec_cache[predicate] = _decompose(predicate)
            o_row = dec_cache.get(obj)
            if o_row is None:
                o_row = dec_cache[obj] = _decompose(obj)
            c_row = canon_cache.get(obj)
            if c_row is None:
                c_row = canon_cache[obj] = _decompose(
                    canonical_term(obj))
            link_type = type_cache.get(predicate)
            if link_type is None:
                link_type = type_cache[predicate] = \
                    LinkType.for_predicate(predicate).value
            rows.append(s_row + p_row + o_row + c_row + (link_type,))
            staged += 1
            if len(rows) >= self._batch_size:
                self._db.executemany(insert_sql, rows)
                batch_counter.inc()
                rows = []
                if len(dec_cache) > 100_000:
                    dec_cache.clear()
                    canon_cache.clear()
        if rows:
            self._db.executemany(insert_sql, rows)
            batch_counter.inc()
        return staged

    def _merge_values(self) -> int:
        """INSERT ... SELECT the distinct new text values."""
        before = self._db.row_count(VALUE_TABLE)
        for role in ("s", "p", "o", "c"):
            self._db.execute(
                f'INSERT OR IGNORE INTO "{VALUE_TABLE}" '
                "(value_name, value_type, literal_type, language_type,"
                " long_value) "
                f"SELECT DISTINCT {role}_name, {role}_type, "
                f"{role}_ltype, {role}_lang, {role}_long "
                f'FROM "{STAGE_TABLE}"')
        return self._db.row_count(VALUE_TABLE) - before

    def _value_join(self, role: str, alias: str) -> str:
        """Join predicate matching a staged component to rdf_value$."""
        return (f"{alias}.value_name = st.{role}_name "
                f"AND {alias}.value_type = st.{role}_type "
                f"AND IFNULL({alias}.literal_type, '') "
                f"= IFNULL(st.{role}_ltype, '') "
                f"AND IFNULL({alias}.language_type, '') "
                f"= IFNULL(st.{role}_lang, '') "
                f"AND IFNULL({alias}.long_value, '') "
                f"= IFNULL(st.{role}_long, '')")

    def _merge_links(self) -> int:
        """Register nodes and insert the deduplicated link rows."""
        # Nodes: every staged subject and object value.
        for role in ("s", "o"):
            self._db.execute(
                f'INSERT OR IGNORE INTO "{NODE_TABLE}" '
                "(node_id, node_type) "
                f"SELECT DISTINCT v.value_id, v.value_type "
                f'FROM "{STAGE_TABLE}" st JOIN "{VALUE_TABLE}" v '
                f"ON {self._value_join(role, 'v')}")
            # Blank nodes of this model.
            self._db.execute(
                f'INSERT OR IGNORE INTO "{BLANK_NODE_TABLE}" '
                "(value_id, model_id, orig_label) "
                f"SELECT DISTINCT v.value_id, ?, "
                f"SUBSTR(st.{role}_name, 3) "
                f'FROM "{STAGE_TABLE}" st JOIN "{VALUE_TABLE}" v '
                f"ON {self._value_join(role, 'v')} "
                f"WHERE st.{role}_type = 'BN'",
                (self._model.model_id,))
        before = self._db.row_count(LINK_TABLE)
        # COST starts at 0: bulk-loaded triples have no application rows.
        distinct_links = (
            "SELECT DISTINCT sv.value_id AS s_id, pv.value_id AS p_id, "
            "ov.value_id AS o_id, cv.value_id AS c_id, st.link_type "
            "AS link_type, "
            "CASE WHEN st.s_name LIKE '/ORADB/%' "
            "OR st.p_name LIKE '/ORADB/%' "
            "OR st.o_name LIKE '/ORADB/%' THEN 'Y' ELSE 'N' END "
            "AS reif_link "
            f'FROM "{STAGE_TABLE}" st '
            f'JOIN "{VALUE_TABLE}" sv ON {self._value_join("s", "sv")} '
            f'JOIN "{VALUE_TABLE}" pv ON {self._value_join("p", "pv")} '
            f'JOIN "{VALUE_TABLE}" ov ON {self._value_join("o", "ov")} '
            f'JOIN "{VALUE_TABLE}" cv ON {self._value_join("c", "cv")}')
        self._db.execute(
            f'INSERT OR IGNORE INTO "{LINK_TABLE}" '
            "(start_node_id, p_value_id, end_node_id,"
            " canon_end_node_id, link_type, cost, context,"
            " reif_link, model_id) "
            "SELECT s_id, p_id, o_id, c_id, link_type, 0, 'D', "
            f"reif_link, ? FROM ({distinct_links})",
            (self._model.model_id,))
        return self._db.row_count(LINK_TABLE) - before

    def _fix_reif_flags(self) -> None:
        """Reconcile REIF_LINK with the strict DBUri grammar.

        The SQL merge approximates DBUri detection with a LIKE prefix;
        the few candidate rows (any component starting ``/ORADB/``) are
        re-checked here with the real parser so the flag always agrees
        with :func:`repro.db.dburi.is_dburi` — the invariant the
        integrity checker enforces.
        """
        rows = self._db.query_all(
            f'SELECT l.link_id, sv.value_name AS s_name, '
            "pv.value_name AS p_name, ov.value_name AS o_name, "
            "l.reif_link "
            f'FROM "{LINK_TABLE}" l '
            f'JOIN "{VALUE_TABLE}" sv ON sv.value_id = l.start_node_id '
            f'JOIN "{VALUE_TABLE}" pv ON pv.value_id = l.p_value_id '
            f'JOIN "{VALUE_TABLE}" ov ON ov.value_id = l.end_node_id '
            "WHERE l.model_id = ? AND (sv.value_name LIKE '/ORADB/%' "
            "OR pv.value_name LIKE '/ORADB/%' "
            "OR ov.value_name LIKE '/ORADB/%')",
            (self._model.model_id,))
        for row in rows:
            actual = any(_is_dburi_text(row[name])
                         for name in ("s_name", "p_name", "o_name"))
            flagged = row["reif_link"] == "Y"
            if actual != flagged:
                self._db.execute(
                    f'UPDATE "{LINK_TABLE}" SET reif_link = ? '
                    "WHERE link_id = ?",
                    ("Y" if actual else "N", row["link_id"]))


def _is_dburi_text(text: str) -> bool:
    from repro.db.dburi import is_dburi

    return is_dburi(text)


def bulk_load_ntriples(store: RDFStore, model_name: str,
                       path: str | Path) -> BulkLoadReport:
    """One-call convenience: bulk-load an N-Triples file into a model."""
    return BulkLoader(store, model_name).load_file(path)

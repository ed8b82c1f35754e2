"""The ``rdf_value$`` store: every text value exactly once.

"Each text entry is uniquely stored" (paper section 4) — URIs, blank
nodes, and literals get one VALUE_ID no matter how many triples, models,
or application tables mention them.  This is the normalization that lets
the IC scenario of Figure 2/6 share VALUE_IDs across the CIA, DHS, and
FBI models.

Long literals (lexical form > 4000 chars) store the full text in
``LONG_VALUE`` and the indexable 4000-char prefix in ``VALUE_NAME``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.schema import VALUE_TABLE
from repro.db.dburi import is_dburi
from repro.errors import ValueNotFoundError
from repro.rdf.terms import (
    LONG_LITERAL_THRESHOLD,
    URI,
    Literal,
    RDFTerm,
    ValueType,
    term_from_lexical,
)
from repro.rdf.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import Database


def stored_name(term: RDFTerm) -> str:
    """The term's VALUE_NAME: its lexical form, cut to the indexable
    4000-char prefix for a long literal."""
    if isinstance(term, Literal):
        return term.lexical_form[:LONG_LITERAL_THRESHOLD]
    return term.lexical


def _decompose(term: RDFTerm) -> tuple[str, str, str | None, str | None,
                                        str | None]:
    """Split a term into its rdf_value$ columns.

    Returns (value_name, value_type, literal_type, language_type,
    long_value).
    """
    literal_type = None
    language_type = None
    long_value = None
    if isinstance(term, Literal):
        if term.datatype is not None:
            literal_type = term.datatype.value
        if term.language is not None:
            language_type = term.language
        if term.is_long:
            long_value = term.lexical_form
    return (stored_name(term), term.value_type.value, literal_type,
            language_type, long_value)


def references_reified(stored_names: Iterable[str]) -> bool:
    """The REIF_LINK rule: a link is 'Y' when the stored text
    (VALUE_NAME) of any of its components is a DBUri.

    The row-at-a-time insert, the bulk loader and ``check_integrity``
    all decide REIF_LINK here, so the two write paths and the checker
    cannot disagree.
    """
    return any(map(is_dburi, stored_names))


class ValueStore:
    """Lookup/insert interface over ``rdf_value$``.

    A small in-process cache keeps the hot term->VALUE_ID mapping out of
    SQL, and a second map keys VALUE_IDs on the caller's text, so a
    warm point probe parses nothing.  Both are write-through and safe
    because VALUE_IDs are immutable once committed; a rollback, which
    can discard an id the cache has handed out, drops them.
    """

    #: VALUE_IDs per batched ``IN (...)`` lookup — comfortably under
    #: SQLite's default 999-parameter limit.
    _BATCH_SIZE = 400

    def __init__(self, database: "Database",
                 cache_size: int = 100_000) -> None:
        self._db = database
        self._cache_size = cache_size
        self._id_cache: dict[RDFTerm, int] = {}
        self._term_cache: dict[int, RDFTerm] = {}
        # The caller's term text -> (VALUE_ID, its parsed term).
        self._text_cache: dict[str, tuple[int, RDFTerm]] = {}
        database.add_rollback_listener(self.invalidate_cache)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def find_id(self, term: RDFTerm) -> int | None:
        """The VALUE_ID of ``term``, or None when not yet stored.

        The lookup matches every column of the uniqueness key,
        LONG_VALUE included — so a short literal never collides with a
        long literal sharing its 4000-char VALUE_NAME prefix, and two
        long literals with equal prefixes stay distinct.
        """
        cached = self._id_cache.get(term)
        if cached is not None:
            return cached
        name, vtype, ltype, lang, long_value = _decompose(term)
        row = self._db.query_one(
            f'SELECT value_id FROM "{VALUE_TABLE}" '
            "WHERE value_name = ? AND value_type = ? "
            "AND IFNULL(literal_type, '') = ? "
            "AND IFNULL(language_type, '') = ? "
            "AND IFNULL(long_value, '') = ?",
            (name, vtype, ltype or "", lang or "", long_value or ""))
        if row is None:
            return None
        value_id = int(row["value_id"])
        self._remember(term, value_id)
        return value_id

    def find_text_ids(self, subject: str, predicate: str, obj: str
                      ) -> tuple[int, int, int] | None:
        """The VALUE_IDs of a triple given as text (the
        ``SDO_RDF_TRIPLE_S`` constructor arguments), or None when a
        component is not stored.

        A text seen before is not parsed again.  It keeps its role
        checks: when a cached term cannot fill its role (a literal
        subject, a predicate that is not a URI), the texts go through
        :meth:`Triple.from_text`, which raises its
        :class:`~repro.errors.TermError` exactly as on a miss.
        """
        texts = self._text_cache
        s_entry = texts.get(subject)
        p_entry = texts.get(predicate)
        o_entry = texts.get(obj)
        if (s_entry is not None and p_entry is not None
                and o_entry is not None
                and isinstance(p_entry[1], URI)
                and not isinstance(s_entry[1], Literal)):
            return s_entry[0], p_entry[0], o_entry[0]
        triple = Triple.from_text(subject, predicate, obj)
        ids = []
        for text, term in zip((subject, predicate, obj), triple):
            value_id = self.find_id(term)
            if value_id is None:
                return None
            if len(texts) >= self._cache_size:
                self.invalidate_cache()
            texts[text] = (value_id, term)
            ids.append(value_id)
        return ids[0], ids[1], ids[2]

    def lookup_or_insert(self, term: RDFTerm) -> int:
        """The VALUE_ID of ``term``, inserting a new row if needed.

        This is the section 4.1 step: "the rdf_value$ table is checked to
        determine if the text values already exist ... if not found, they
        are inserted and assigned new VALUE_IDs".
        """
        existing = self.find_id(term)
        if existing is not None:
            return existing
        name, vtype, ltype, lang, long_value = _decompose(term)
        cursor = self._db.execute(
            f'INSERT INTO "{VALUE_TABLE}" '
            "(value_name, value_type, literal_type, language_type,"
            " long_value) VALUES (?, ?, ?, ?, ?)",
            (name, vtype, ltype, lang, long_value))
        value_id = int(cursor.lastrowid)
        self._remember(term, value_id)
        return value_id

    def get_term(self, value_id: int) -> RDFTerm:
        """Rebuild the term stored under ``value_id``.

        Raises :class:`repro.errors.ValueNotFoundError` for unknown IDs.
        """
        cached = self._term_cache.get(value_id)
        if cached is not None:
            return cached
        row = self._db.query_one(
            f'SELECT * FROM "{VALUE_TABLE}" WHERE value_id = ?',
            (value_id,))
        if row is None:
            raise ValueNotFoundError(value_id)
        lexical = row["long_value"] if row["long_value"] is not None \
            else row["value_name"]
        term = term_from_lexical(
            lexical, ValueType(row["value_type"]),
            literal_type=row["literal_type"],
            language_type=row["language_type"])
        self._remember(term, value_id)
        return term

    def get_terms(self, value_ids) -> dict[int, RDFTerm]:
        """Batch form of :meth:`get_term`: one ``IN (...)`` query per
        chunk instead of a round trip per VALUE_ID.

        The match pipeline resolves a whole result page through this —
        N rows x V variables collapse into a handful of statements.
        Cached terms are served from memory; raises
        :class:`~repro.errors.ValueNotFoundError` if any requested ID
        is unknown.
        """
        wanted = set(value_ids)
        resolved: dict[int, RDFTerm] = {}
        missing: list[int] = []
        for value_id in wanted:
            cached = self._term_cache.get(value_id)
            if cached is not None:
                resolved[value_id] = cached
            else:
                missing.append(value_id)
        for start in range(0, len(missing), self._BATCH_SIZE):
            chunk = missing[start:start + self._BATCH_SIZE]
            placeholders = ", ".join("?" for _ in chunk)
            rows = self._db.query_all(
                f'SELECT * FROM "{VALUE_TABLE}" '
                f"WHERE value_id IN ({placeholders})", chunk)
            for row in rows:
                value_id = int(row["value_id"])
                lexical = row["long_value"] \
                    if row["long_value"] is not None else row["value_name"]
                term = term_from_lexical(
                    lexical, ValueType(row["value_type"]),
                    literal_type=row["literal_type"],
                    language_type=row["language_type"])
                self._remember(term, value_id)
                resolved[value_id] = term
        if len(resolved) != len(wanted):
            raise ValueNotFoundError(min(wanted - resolved.keys()))
        return resolved

    def get_lexical(self, value_id: int) -> str:
        """The lexical form stored under ``value_id`` (VALUE_NAME or
        LONG_VALUE)."""
        row = self._db.query_one(
            f'SELECT value_name, long_value FROM "{VALUE_TABLE}" '
            "WHERE value_id = ?", (value_id,))
        if row is None:
            raise ValueNotFoundError(value_id)
        if row["long_value"] is not None:
            return row["long_value"]
        return row["value_name"]

    def count(self) -> int:
        """Number of distinct stored values."""
        return self._db.row_count(VALUE_TABLE)

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def _remember(self, term: RDFTerm, value_id: int) -> None:
        if len(self._id_cache) >= self._cache_size:
            self.invalidate_cache()
        self._id_cache[term] = value_id
        self._term_cache[value_id] = term

    def invalidate_cache(self) -> None:
        """Drop the in-process caches (after bulk deletes, a rollback,
        or another connection's commit)."""
        self._id_cache.clear()
        self._term_cache.clear()
        self._text_cache.clear()

"""The ``rdf_link$`` store: triples as NDM links.

"The rdf_link$ table is dual-purposed: it stores the triples for all the
RDF graphs in the database, and it defines the logical network seen by
NDM" (paper section 4).  Each row is one triple of one model:

* START_NODE_ID / P_VALUE_ID / END_NODE_ID — the component VALUE_IDs;
* CANON_END_NODE_ID — VALUE_ID of the canonical form of the object;
* LINK_TYPE — STANDARD, RDF_TYPE (rdf:type), RDF_MEMBER (rdf:_n), or
  RDF_* (other rdf-vocabulary predicates);
* COST — how many application-table rows reference this triple;
* CONTEXT — 'D' (directly asserted) or 'I' (exists only as the base of a
  reification, section 5.2);
* REIF_LINK — 'Y' when a component references a reified triple (a DBUri).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from repro.core.schema import LINK_TABLE, MODEL_VERSION_TABLE, VALUE_TABLE
from repro.db.dburi import link_dburi_sql
from repro.errors import TripleNotFoundError
from repro.rdf.containers import is_membership_property
from repro.rdf.namespaces import RDF
from repro.rdf.terms import URI, ValueType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import Database


class LinkType(str, Enum):
    """``LINK_TYPE`` codes (paper section 4)."""

    STANDARD = "STANDARD"
    RDF_TYPE = "RDF_TYPE"
    RDF_MEMBER = "RDF_MEMBER"
    RDF_OTHER = "RDF_*"

    @classmethod
    def for_predicate(cls, predicate: URI) -> "LinkType":
        """Classify a predicate URI into its link type.

        Both the full-URI and the ``rdf:``-prefixed spellings classify
        (the paper's examples store prefixed names verbatim).
        """
        value = predicate.value
        if value.startswith("rdf:"):
            value = RDF.base + value[len("rdf:"):]
        if value == RDF.type.value:
            return cls.RDF_TYPE
        if is_membership_property(URI(value)):
            return cls.RDF_MEMBER
        if value.startswith(RDF.base):
            return cls.RDF_OTHER
        return cls.STANDARD


class Context(str, Enum):
    """``CONTEXT`` codes: direct assertion vs indirect (implied) triple."""

    DIRECT = "D"
    INDIRECT = "I"


# Stored code -> member, built once: a dict lookup, not an Enum call
# per row read.
_LINK_TYPES = {member.value: member for member in LinkType}
_CONTEXTS = {member.value: member for member in Context}

#: Is there a reification statement ``<DBUri(n), rdf:type,
#: rdf:Statement>`` in model ?1, where ?2 and ?3 are the VALUE_IDs of
#: rdf:type and rdf:Statement and ``{dburi}`` is the DBUri's text as an
#: SQL expression of ``n``?  The text is found through rdf_value_uniq;
#: the statement is probed on rdf_link_uniq.
_REIFIED_SQL = (
    f'EXISTS (SELECT 1 FROM "{LINK_TABLE}" r WHERE r.model_id = ?1 '
    f'AND r.start_node_id = (SELECT v.value_id FROM "{VALUE_TABLE}" v '
    "WHERE v.value_name = {dburi} "
    f"AND v.value_type = '{ValueType.URI.value}' "
    "AND IFNULL(v.literal_type, '') = '' "
    "AND IFNULL(v.language_type, '') = '' "
    "AND IFNULL(v.long_value, '') = '') "
    "AND r.p_value_id = ?2 AND r.end_node_id = ?3)")

#: IS_REIFIED by LINK_ID (?4).
_IS_REIFIED_ID_SQL = "SELECT " + _REIFIED_SQL.format(
    dburi=link_dburi_sql("?4"))

#: IS_REIFIED by the base triple's VALUE_IDs (?4, ?5, ?6): the base
#: link's probe and the reification's, one statement.
_IS_REIFIED_SQL = (
    "SELECT " + _REIFIED_SQL.format(dburi=link_dburi_sql("b.link_id"))
    + f' FROM "{LINK_TABLE}" b WHERE b.model_id = ?1 '
    "AND b.start_node_id = ?4 AND b.p_value_id = ?5 "
    "AND b.end_node_id = ?6")


@dataclass(frozen=True, slots=True)
class LinkRow:
    """One materialised rdf_link$ row."""

    link_id: int
    start_node_id: int
    p_value_id: int
    end_node_id: int
    canon_end_node_id: int
    link_type: LinkType
    cost: int
    context: Context
    reif_link: bool
    model_id: int

    @classmethod
    def from_row(cls, row) -> "LinkRow":
        # Positional, in field order: cheaper than keywords per row.
        return cls(int(row["link_id"]), int(row["start_node_id"]),
                   int(row["p_value_id"]), int(row["end_node_id"]),
                   int(row["canon_end_node_id"]),
                   _LINK_TYPES[row["link_type"]], int(row["cost"]),
                   _CONTEXTS[row["context"]], row["reif_link"] == "Y",
                   int(row["model_id"]))


class LinkStore:
    """Insert/lookup/delete interface over ``rdf_link$``."""

    def __init__(self, database: "Database") -> None:
        self._db = database

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def find(self, model_id: int, start_node_id: int, p_value_id: int,
             end_node_id: int) -> LinkRow | None:
        """The link row for (model, s, p, o) IDs, or None."""
        row = self._db.query_one(
            f'SELECT * FROM "{LINK_TABLE}" WHERE model_id = ? '
            "AND start_node_id = ? AND p_value_id = ? AND end_node_id = ?",
            (model_id, start_node_id, p_value_id, end_node_id))
        return None if row is None else LinkRow.from_row(row)

    def contains(self, model_id: int, start_node_id: int, p_value_id: int,
                 end_node_id: int) -> bool:
        """True when (model, s, p, o) IDs are stored; builds no row."""
        return self._db.query_one(
            f'SELECT 1 FROM "{LINK_TABLE}" WHERE model_id = ? '
            "AND start_node_id = ? AND p_value_id = ? AND end_node_id = ?",
            (model_id, start_node_id, p_value_id, end_node_id)) is not None

    def is_reified(self, model_id: int, type_id: int, statement_id: int,
                   start_node_id: int, p_value_id: int,
                   end_node_id: int) -> bool:
        """Is the (s, p, o) triple of the model reified there?  One
        statement; ``type_id`` and ``statement_id`` are the VALUE_IDs of
        rdf:type and rdf:Statement."""
        row = self._db.query_one(
            _IS_REIFIED_SQL, (model_id, type_id, statement_id,
                              start_node_id, p_value_id, end_node_id))
        return row is not None and bool(row[0])

    def is_reified_id(self, model_id: int, type_id: int,
                      statement_id: int, link_id: int) -> bool:
        """Is the triple with ``link_id`` reified in the model?  The
        statement of :meth:`is_reified` with the LINK_ID bound."""
        return bool(self._db.query_one(
            _IS_REIFIED_ID_SQL,
            (model_id, type_id, statement_id, link_id))[0])

    def get(self, link_id: int) -> LinkRow:
        """The link row with ``link_id``; raises TripleNotFoundError."""
        row = self._db.query_one(
            f'SELECT * FROM "{LINK_TABLE}" WHERE link_id = ?', (link_id,))
        if row is None:
            raise TripleNotFoundError(link_id)
        return LinkRow.from_row(row)

    def exists(self, link_id: int) -> bool:
        return self._db.query_one(
            f'SELECT 1 FROM "{LINK_TABLE}" WHERE link_id = ?',
            (link_id,)) is not None

    def count(self, model_id: int | None = None) -> int:
        """Triple count, optionally restricted to one model."""
        if model_id is None:
            return self._db.row_count(LINK_TABLE)
        return int(self._db.query_value(
            f'SELECT COUNT(*) FROM "{LINK_TABLE}" WHERE model_id = ?',
            (model_id,), default=0))

    def iter_model(self, model_id: int) -> Iterator[LinkRow]:
        """All link rows of one model."""
        for row in self._db.execute(
                f'SELECT * FROM "{LINK_TABLE}" WHERE model_id = ? '
                "ORDER BY link_id", (model_id,)):
            yield LinkRow.from_row(row)

    # ------------------------------------------------------------------
    # per-model write versions
    # ------------------------------------------------------------------

    def model_version(self, model_id: int) -> int:
        """The persistent write version of a model (0 when unwritten).

        Tolerates a pre-migration database without the version table
        (possible only on read-only opens — writable opens create it).
        """
        if not self._db.table_exists(MODEL_VERSION_TABLE):
            return 0
        return int(self._db.query_value(
            f'SELECT version FROM "{MODEL_VERSION_TABLE}" '
            "WHERE model_id = ?", (model_id,), default=0))

    def model_versions(self, model_ids) -> dict[int, int]:
        """Batch form of :meth:`model_version`."""
        ids = list(model_ids)
        versions = {model_id: 0 for model_id in ids}
        if not ids or not self._db.table_exists(MODEL_VERSION_TABLE):
            return versions
        placeholders = ", ".join("?" for _ in ids)
        for row in self._db.query_all(
                f'SELECT model_id, version FROM "{MODEL_VERSION_TABLE}" '
                f"WHERE model_id IN ({placeholders})", ids):
            versions[int(row["model_id"])] = int(row["version"])
        return versions

    def bump_model_version(self, model_id: int) -> None:
        """Advance a model's write version (inside the caller's
        transaction, so it commits or rolls back with the change)."""
        self._db.execute(
            f'INSERT INTO "{MODEL_VERSION_TABLE}" (model_id, version) '
            "VALUES (?, 1) ON CONFLICT (model_id) "
            "DO UPDATE SET version = version + 1", (model_id,))

    def drop_model_version(self, model_id: int) -> None:
        """Forget a dropped model's version row."""
        if self._db.table_exists(MODEL_VERSION_TABLE):
            self._db.execute(
                f'DELETE FROM "{MODEL_VERSION_TABLE}" '
                "WHERE model_id = ?", (model_id,))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, model_id: int, start_node_id: int, p_value_id: int,
               end_node_id: int, canon_end_node_id: int,
               link_type: LinkType, context: Context,
               reif_link: bool) -> LinkRow:
        """Insert a new link row with COST=1 and return it."""
        cursor = self._db.execute(
            f'INSERT INTO "{LINK_TABLE}" '
            "(start_node_id, p_value_id, end_node_id,"
            " canon_end_node_id, link_type, cost, context,"
            " reif_link, model_id)"
            " VALUES (?, ?, ?, ?, ?, 1, ?, ?, ?)",
            (start_node_id, p_value_id, end_node_id,
             canon_end_node_id, link_type.value, context.value,
             "Y" if reif_link else "N", model_id))
        self.bump_model_version(model_id)
        self._db.bump_data_version()
        return self.get(int(cursor.lastrowid))

    def increment_cost(self, link_id: int) -> int:
        """COST += 1 (another application row references the triple)."""
        self._db.execute(
            f'UPDATE "{LINK_TABLE}" SET cost = cost + 1 '
            "WHERE link_id = ?", (link_id,))
        return self.get(link_id).cost

    def decrement_cost(self, link_id: int) -> int:
        """COST -= 1; returns the new cost (may reach 0)."""
        self._db.execute(
            f'UPDATE "{LINK_TABLE}" SET cost = MAX(cost - 1, 0) '
            "WHERE link_id = ?", (link_id,))
        return self.get(link_id).cost

    def promote_context(self, link_id: int) -> None:
        """Flip CONTEXT from 'I' to 'D' (section 5.2 note: an implied
        triple later entered as a fact becomes direct)."""
        self._db.execute(
            f'UPDATE "{LINK_TABLE}" SET context = ? WHERE link_id = ?',
            (Context.DIRECT.value, link_id))

    def delete(self, link_id: int) -> LinkRow:
        """Remove the link row; returns the removed row.

        Node garbage collection (removing nodes with no remaining links)
        is the parser's job, since it owns rdf_node$.
        """
        row = self.get(link_id)
        self._db.execute(
            f'DELETE FROM "{LINK_TABLE}" WHERE link_id = ?', (link_id,))
        self.bump_model_version(row.model_id)
        self._db.bump_data_version()
        return row

    def node_in_use(self, node_id: int) -> bool:
        """True while any link starts or ends at ``node_id``."""
        return self._db.query_one(
            f'SELECT 1 FROM "{LINK_TABLE}" '
            "WHERE start_node_id = ? OR end_node_id = ? LIMIT 1",
            (node_id, node_id)) is not None

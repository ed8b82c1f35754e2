"""DDL for the central RDF schema.

The tables mirror the paper's Figure 4:

``rdf_model$``
    one row per RDF model (graph): MODEL_ID, MODEL_NAME, and the
    application table/column the model was created for.

``rdf_value$``
    every distinct text value (URI, blank node, literal) exactly once:
    VALUE_ID, VALUE_NAME, VALUE_TYPE, LITERAL_TYPE, LANGUAGE_TYPE,
    LONG_VALUE.  For long literals (lexical form > 4000 chars) VALUE_NAME
    holds the 4000-char prefix and LONG_VALUE the full text, so the
    prefix stays indexable — the same reason Oracle splits the columns.

``rdf_node$``
    the NDM node table: one row per value that participates in a triple
    as subject or object.  NODE_ID equals the value's VALUE_ID.

``rdf_link$``
    the NDM link table and the triple table in one: LINK_ID,
    START_NODE_ID, P_VALUE_ID, END_NODE_ID, CANON_END_NODE_ID,
    LINK_TYPE, COST, CONTEXT, REIF_LINK, MODEL_ID.  Three indexes:
    ``rdf_link_uniq`` (model, s, p, o) enforces one row per triple and
    is the subject access path; ``rdf_link_pos`` and ``rdf_link_osp``
    key END_NODE_ID, the object column matching reads.
    CANON_END_NODE_ID is stored and integrity-checked but not indexed.
    A file written under the earlier index layout is moved to this one
    on its first writable open.

``rdf_blank_node$``
    per-model blank-node bookkeeping: which VALUE_IDs are blank nodes of
    which model, under which original label.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ndm.catalog import NetworkCatalog, NetworkMetadata

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import Database

MODEL_TABLE = "rdf_model$"
VALUE_TABLE = "rdf_value$"
NODE_TABLE = "rdf_node$"
LINK_TABLE = "rdf_link$"
BLANK_NODE_TABLE = "rdf_blank_node$"
VERSION_TABLE = "rdf_schema_version$"
MODEL_VERSION_TABLE = "rdf_model_version$"
IDEMPOTENCY_TABLE = "rdf_idempotency$"

#: Bumped on incompatible central-schema layout changes; a database
#: written by a newer layout refuses to open under older code.
SCHEMA_VERSION = 1

#: The catalog name of the RDF universe network (all models together).
RDF_NETWORK_NAME = "RDF_NETWORK"

#: The object-side access paths.  Both key ``end_node_id``, the column
#: the matcher reads; the subject path is ``rdf_link_uniq``'s prefix.
_ACCESS_INDEXES = (
    f'CREATE INDEX IF NOT EXISTS rdf_link_pos ON "{LINK_TABLE}" '
    "(model_id, p_value_id, end_node_id)",
    f'CREATE INDEX IF NOT EXISTS rdf_link_osp ON "{LINK_TABLE}" '
    "(model_id, end_node_id)",
)
_ACCESS_INDEX_SQL = "".join(f"{statement};\n"
                            for statement in _ACCESS_INDEXES)

_SCHEMA_SQL = f"""
CREATE TABLE IF NOT EXISTS "{MODEL_TABLE}" (
    model_id    INTEGER PRIMARY KEY,
    model_name  TEXT NOT NULL UNIQUE,
    table_name  TEXT NOT NULL,
    column_name TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS "{VALUE_TABLE}" (
    value_id      INTEGER PRIMARY KEY,
    value_name    TEXT NOT NULL,
    value_type    TEXT NOT NULL,
    literal_type  TEXT,
    language_type TEXT,
    long_value    TEXT
);

-- Uniqueness covers LONG_VALUE too: two long literals sharing the
-- 4000-char VALUE_NAME prefix are distinct values.
CREATE UNIQUE INDEX IF NOT EXISTS rdf_value_uniq
    ON "{VALUE_TABLE}" (value_name, value_type,
                        IFNULL(literal_type, ''),
                        IFNULL(language_type, ''),
                        IFNULL(long_value, ''));

CREATE TABLE IF NOT EXISTS "{NODE_TABLE}" (
    node_id   INTEGER PRIMARY KEY
              REFERENCES "{VALUE_TABLE}" (value_id),
    node_type TEXT NOT NULL,
    active    TEXT NOT NULL DEFAULT 'Y'
);

CREATE TABLE IF NOT EXISTS "{LINK_TABLE}" (
    link_id            INTEGER PRIMARY KEY,
    start_node_id      INTEGER NOT NULL
                       REFERENCES "{NODE_TABLE}" (node_id),
    p_value_id         INTEGER NOT NULL
                       REFERENCES "{VALUE_TABLE}" (value_id),
    end_node_id        INTEGER NOT NULL
                       REFERENCES "{NODE_TABLE}" (node_id),
    canon_end_node_id  INTEGER NOT NULL
                       REFERENCES "{VALUE_TABLE}" (value_id),
    link_type          TEXT NOT NULL DEFAULT 'STANDARD',
    cost               INTEGER NOT NULL DEFAULT 1,
    context            TEXT NOT NULL DEFAULT 'D'
                       CHECK (context IN ('D', 'I')),
    reif_link          TEXT NOT NULL DEFAULT 'N'
                       CHECK (reif_link IN ('Y', 'N')),
    model_id           INTEGER NOT NULL
                       REFERENCES "{MODEL_TABLE}" (model_id)
);

-- One row per distinct triple per model (section 4.1: "a check is made
-- to determine if the triple already exists in the specified graph").
CREATE UNIQUE INDEX IF NOT EXISTS rdf_link_uniq
    ON "{LINK_TABLE}" (model_id, start_node_id, p_value_id, end_node_id);

-- Access-path indexes; the model_id leading column is the SQLite
-- equivalent of the paper's "partitioned by graphs" layout.
{_ACCESS_INDEX_SQL}
CREATE TABLE IF NOT EXISTS "{BLANK_NODE_TABLE}" (
    value_id   INTEGER NOT NULL
               REFERENCES "{VALUE_TABLE}" (value_id),
    model_id   INTEGER NOT NULL
               REFERENCES "{MODEL_TABLE}" (model_id),
    orig_label TEXT NOT NULL,
    PRIMARY KEY (value_id, model_id)
);

CREATE TABLE IF NOT EXISTS "{VERSION_TABLE}" (
    version INTEGER PRIMARY KEY
);

-- Persistent per-model write counter: bumped inside every transaction
-- that changes a model's triple set (insert, delete, bulk load).  Rules
-- indexes record these at build time; staleness is the comparison —
-- unlike triple counts, a balanced delete+insert still moves the
-- version, and unlike in-memory counters, it survives restarts.
CREATE TABLE IF NOT EXISTS "{MODEL_VERSION_TABLE}" (
    model_id INTEGER PRIMARY KEY,
    version  INTEGER NOT NULL DEFAULT 0
);
"""

#: DDL for the serving layer's exactly-once write ledger.  One row per
#: Idempotency-Key the server has applied: the recorded outcome is
#: written **inside the same transaction** as the write it describes,
#: so a client retry after a dropped connection replays the stored
#: answer instead of applying the mutation twice.  ``seq`` orders rows
#: for the bounded-size prune (oldest evicted first); created by
#: :func:`repro.server.state.ensure_serve_state`, not part of the
#: central schema proper.
IDEMPOTENCY_SQL = f"""
CREATE TABLE IF NOT EXISTS "{IDEMPOTENCY_TABLE}" (
    key          TEXT PRIMARY KEY,
    seq          INTEGER NOT NULL,
    route        TEXT NOT NULL,
    outcome_json TEXT NOT NULL,
    created_at   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS rdf_idempotency_seq
    ON "{IDEMPOTENCY_TABLE}" (seq);
"""


def create_central_schema(database: "Database") -> None:
    """Create the central RDF schema (idempotent).

    Also registers the RDF universe network in the NDM catalog, which is
    what "built on top of NDM" means operationally: ``rdf_node$`` and
    ``rdf_link$`` *are* the NDM tables for this network.

    Raises :class:`repro.errors.SchemaError` when the database carries a
    newer schema version than this code understands.
    """
    _check_schema_version(database)
    _upgrade_access_indexes(database)
    database.executescript(_SCHEMA_SQL)
    database.execute(
        f'INSERT OR IGNORE INTO "{VERSION_TABLE}" VALUES (?)',
        (SCHEMA_VERSION,))
    catalog = NetworkCatalog(database)
    if not catalog.exists(RDF_NETWORK_NAME):
        catalog.register(NetworkMetadata(
            network_name=RDF_NETWORK_NAME,
            node_table=NODE_TABLE,
            link_table=LINK_TABLE,
            node_id_column="node_id",
            link_id_column="link_id",
            start_node_column="start_node_id",
            end_node_column="end_node_id",
            cost_column=None,
            directed=True,
            partition_column="model_id"))


def _upgrade_access_indexes(database: "Database") -> None:
    """Move a file written under the earlier index layout to this one.

    That layout keyed ``rdf_link_pos``/``rdf_link_osp`` on
    ``canon_end_node_id``, which no plan reads, and kept
    ``rdf_link_spo``, a prefix of ``rdf_link_uniq``.  One transaction
    drops the three, builds :data:`_ACCESS_INDEXES` and refreshes the
    planner's statistics for ``rdf_link$``.  Older code reads either
    layout correctly, so ``SCHEMA_VERSION`` does not move.
    """
    stale = [row["name"] for row in database.query_all(
        "SELECT name, sql FROM sqlite_master WHERE type = 'index' "
        "AND name IN ('rdf_link_spo', 'rdf_link_pos', 'rdf_link_osp')")
        if row["name"] == "rdf_link_spo"
        or "canon_end_node_id" in row["sql"]]
    if not stale:
        return
    with database.transaction():
        for name in stale:
            database.execute(f"DROP INDEX {name}")
        for statement in _ACCESS_INDEXES:
            database.execute(statement)
        database.execute(f'ANALYZE "{LINK_TABLE}"')


def _check_schema_version(database: "Database") -> None:
    from repro.errors import SchemaError

    if not database.table_exists(VERSION_TABLE):
        return
    stored = database.query_value(
        f'SELECT MAX(version) FROM "{VERSION_TABLE}"')
    if stored is not None and int(stored) > SCHEMA_VERSION:
        raise SchemaError(
            f"database schema version {stored} is newer than this "
            f"library's {SCHEMA_VERSION}; upgrade the library")


def central_schema_exists(database: "Database") -> bool:
    """True when the central schema tables are present."""
    return all(database.table_exists(table) for table in (
        MODEL_TABLE, VALUE_TABLE, NODE_TABLE, LINK_TABLE, BLANK_NODE_TABLE))

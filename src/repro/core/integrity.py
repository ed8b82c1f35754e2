"""Central-schema integrity checking.

The central schema carries invariants the paper's design relies on:

* every link component references an existing ``rdf_value$`` row, and
  subject/object references an ``rdf_node$`` row;
* ``CANON_END_NODE_ID`` references an existing value;
* ``MODEL_ID`` references an ``rdf_model$`` row;
* ``REIF_LINK='Y'`` exactly when a component is a DBUri (and vice
  versa);
* every reification statement's DBUri resolves to an existing
  ``rdf_link$`` row (no dangling reifications);
* no orphan nodes (``rdf_node$`` rows no link touches);
* ``COST`` is never negative; predicates are URIs; subjects are not
  literals.

:func:`check_integrity` sweeps them all and returns a list of
:class:`Violation` — empty on a healthy store.  The test suite uses it
both as a production health check and as the oracle for
corruption-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.schema import (
    LINK_TABLE,
    MODEL_TABLE,
    NODE_TABLE,
    VALUE_TABLE,
)
from repro.core.values import references_reified
from repro.db.dburi import DBUri, is_dburi

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import RDFStore


@dataclass(frozen=True, slots=True)
class Violation:
    """One integrity violation."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


def check_integrity(store: "RDFStore") -> list[Violation]:
    """Run every integrity check; returns all violations found."""
    violations: list[Violation] = []
    violations.extend(_check_link_references(store))
    violations.extend(_check_node_registration(store))
    violations.extend(_check_orphan_nodes(store))
    violations.extend(_check_reif_flags(store))
    violations.extend(_check_dangling_reifications(store))
    violations.extend(_check_component_kinds(store))
    violations.extend(_check_costs(store))
    return violations


def _check_link_references(store: "RDFStore") -> list[Violation]:
    """Every link column references an existing value/model row."""
    db = store.database
    violations = []
    for column, target, target_col in (
            ("start_node_id", VALUE_TABLE, "value_id"),
            ("p_value_id", VALUE_TABLE, "value_id"),
            ("end_node_id", VALUE_TABLE, "value_id"),
            ("canon_end_node_id", VALUE_TABLE, "value_id"),
            ("model_id", MODEL_TABLE, "model_id")):
        for row in db.query_all(
                f'SELECT link_id, {column} AS ref FROM "{LINK_TABLE}" l '
                f'WHERE NOT EXISTS (SELECT 1 FROM "{target}" t '
                f"WHERE t.{target_col} = l.{column})"):
            violations.append(Violation(
                "link-references",
                f"LINK_ID={row['link_id']}: {column}={row['ref']} has "
                f"no row in {target}"))
    return violations


def _check_node_registration(store: "RDFStore") -> list[Violation]:
    """Subjects and objects must be registered NDM nodes."""
    db = store.database
    violations = []
    for column in ("start_node_id", "end_node_id"):
        for row in db.query_all(
                f'SELECT link_id, {column} AS ref FROM "{LINK_TABLE}" l '
                f'WHERE NOT EXISTS (SELECT 1 FROM "{NODE_TABLE}" n '
                f"WHERE n.node_id = l.{column})"):
            violations.append(Violation(
                "node-registration",
                f"LINK_ID={row['link_id']}: {column}={row['ref']} is "
                "not in rdf_node$"))
    return violations


#: One set-difference pass — three index/table scans, nothing
#: correlated.  (``NOT EXISTS ... start_node_id = n OR end_node_id =
#: n`` rescans ``rdf_link$`` per node: no index leads on end_node_id.)
ORPHAN_NODES_SQL = (
    f'SELECT node_id FROM "{NODE_TABLE}" '
    f'EXCEPT SELECT start_node_id FROM "{LINK_TABLE}" '
    f'EXCEPT SELECT end_node_id FROM "{LINK_TABLE}"')


def _check_orphan_nodes(store: "RDFStore") -> list[Violation]:
    """rdf_node$ rows that no link touches."""
    return [Violation("orphan-node",
                      f"NODE_ID={row['node_id']} has no links")
            for row in store.database.query_all(ORPHAN_NODES_SQL)]


def _check_reif_flags(store: "RDFStore") -> list[Violation]:
    """REIF_LINK must equal 'Y' iff a component is a DBUri."""
    violations = []
    for row in store.database.query_all(
            f'SELECT l.link_id, l.reif_link, '
            "sv.value_name AS s_name, pv.value_name AS p_name, "
            "ov.value_name AS o_name "
            f'FROM "{LINK_TABLE}" l '
            f'JOIN "{VALUE_TABLE}" sv ON sv.value_id = l.start_node_id '
            f'JOIN "{VALUE_TABLE}" pv ON pv.value_id = l.p_value_id '
            f'JOIN "{VALUE_TABLE}" ov ON ov.value_id = l.end_node_id'):
        has_dburi = references_reified(
            row[name] for name in ("s_name", "p_name", "o_name"))
        flagged = row["reif_link"] == "Y"
        if has_dburi != flagged:
            violations.append(Violation(
                "reif-flag",
                f"LINK_ID={row['link_id']}: REIF_LINK="
                f"{row['reif_link']!r} but DBUri component is "
                f"{has_dburi}"))
    return violations


def _check_dangling_reifications(store: "RDFStore") -> list[Violation]:
    """Every DBUri in any component must resolve to a link row."""
    violations = []
    seen: set[str] = set()
    for row in store.database.query_all(
            f'SELECT DISTINCT v.value_name FROM "{VALUE_TABLE}" v '
            f'JOIN "{LINK_TABLE}" l ON l.start_node_id = v.value_id '
            "OR l.end_node_id = v.value_id OR l.p_value_id = v.value_id "
            "WHERE v.value_name LIKE '/ORADB/%'"):
        text = row["value_name"]
        if text in seen or not is_dburi(text):
            continue
        seen.add(text)
        uri = DBUri.parse(text)
        if not uri.is_link_uri:
            continue
        if not store.links.exists(uri.link_id):
            violations.append(Violation(
                "dangling-reification",
                f"{text} references a deleted triple"))
    return violations


def _check_component_kinds(store: "RDFStore") -> list[Violation]:
    """Predicates must be URIs; subjects must not be literals."""
    db = store.database
    violations = []
    for row in db.query_all(
            f'SELECT l.link_id, v.value_type FROM "{LINK_TABLE}" l '
            f'JOIN "{VALUE_TABLE}" v ON v.value_id = l.p_value_id '
            "WHERE v.value_type != 'UR'"):
        violations.append(Violation(
            "predicate-kind",
            f"LINK_ID={row['link_id']}: predicate has VALUE_TYPE="
            f"{row['value_type']!r}, expected 'UR'"))
    for row in db.query_all(
            f'SELECT l.link_id, v.value_type FROM "{LINK_TABLE}" l '
            f'JOIN "{VALUE_TABLE}" v ON v.value_id = l.start_node_id '
            "WHERE v.value_type NOT IN ('UR', 'BN')"):
        violations.append(Violation(
            "subject-kind",
            f"LINK_ID={row['link_id']}: subject has VALUE_TYPE="
            f"{row['value_type']!r}, expected URI or blank node"))
    return violations


def _check_costs(store: "RDFStore") -> list[Violation]:
    rows = store.database.query_all(
        f'SELECT link_id, cost FROM "{LINK_TABLE}" WHERE cost < 0')
    return [Violation("cost", f"LINK_ID={row['link_id']}: negative "
                      f"COST {row['cost']}")
            for row in rows]

"""Statistics for the SDO_RDF_MATCH planner.

Join-order quality is what makes or breaks an RDF self-join store: a
query that starts from a selective constant-anchored pattern touches a
handful of ``rdf_link$`` rows, while the same query joined in textual
order can scan a model per pattern.  This module maintains the figures
the planner (:mod:`repro.inference.plan`) orders joins by:

* per-dataset triple counts (the models searched, plus a covering
  rules index's ``rdf_inferred$`` rows when rulebases are given);
* per-constant counts — how many dataset triples carry a given
  VALUE_ID in the subject, predicate, or object position.

Every count is one cached, indexed ``COUNT(*)`` over the column the
matcher reads (``rdf_link_uniq`` for subjects, ``rdf_link_pos`` for
predicates, ``rdf_link_osp`` for objects' ``end_node_id``), so each
figure is exact.  The cache is keyed on the database's
:attr:`~repro.db.connection.Database.data_version` counter, so any
insert, delete, bulk load, model drop, or rules-index change starts a
fresh set of figures.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.schema import LINK_TABLE
from repro.inference.rules_index import INFERRED_TABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import RDFStore

#: Constant position -> the ``rdf_link$`` column its count filters on.
_POSITION_COLUMNS = {
    "s": "start_node_id",
    "p": "p_value_id",
    "o": "end_node_id",
}


class MatchStatistics:
    """Version-checked selectivity statistics over one store.

    One instance lives on the :class:`~repro.core.store.RDFStore`
    (``store.match_statistics``) and is shared by every query the
    store plans.
    """

    def __init__(self, store: "RDFStore") -> None:
        self._store = store
        self._version = -1
        self._counts: dict[tuple, int] = {}
        # Pooled server readers plan queries concurrently against one
        # store; the version check + figure cache must stay coherent.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        version = self._store.database.data_version
        if version != self._version:
            self._counts.clear()
            self._version = version

    def __len__(self) -> int:
        """Number of cached figures (test/introspection hook)."""
        with self._lock:
            return len(self._counts)

    def clear(self) -> None:
        """Drop every cached figure."""
        with self._lock:
            self._counts.clear()
            self._version = -1

    def _cached(self, key: tuple, sql: str, params: Sequence) -> int:
        with self._lock:
            self._sync()
            value = self._counts.get(key)
            if value is None:
                value = int(self._store.database.query_value(
                    sql, params, default=0))
                self._counts[key] = value
            return value

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------

    def dataset_size(self, model_ids: Sequence[int],
                     index_name: str | None = None) -> int:
        """Triples visible to a query over these models (+ inferred)."""
        models = tuple(sorted(model_ids))
        placeholders = ", ".join("?" for _ in models)
        total = self._cached(
            ("dataset", models),
            f'SELECT COUNT(*) FROM "{LINK_TABLE}" '
            f"WHERE model_id IN ({placeholders})", models)
        if index_name is not None:
            total += self._cached(
                ("inferred", index_name),
                f'SELECT COUNT(*) FROM "{INFERRED_TABLE}" '
                "WHERE index_name = ?", (index_name,))
        return total

    def constant_count(self, model_ids: Sequence[int], position: str,
                       value_id: int) -> int:
        """Dataset triples with ``value_id`` at ``position`` (s/p/o),
        counted on that position's access-path index."""
        column = _POSITION_COLUMNS[position]
        models = tuple(sorted(model_ids))
        placeholders = ", ".join("?" for _ in models)
        return self._cached(
            (position, models, value_id),
            f'SELECT COUNT(*) FROM "{LINK_TABLE}" '
            f"WHERE model_id IN ({placeholders}) AND {column} = ?",
            models + (value_id,))

    def estimate_rows(self, model_ids: Sequence[int],
                      constants: Mapping[str, int],
                      index_name: str | None = None
                      ) -> tuple[float, dict[str, int]]:
        """Estimated result rows for one triple pattern.

        :param constants: position (``s``/``p``/``o``) -> VALUE_ID of
            the pattern's constant components.
        :returns: ``(estimate, per_position_counts)``.  The estimate
            assumes the constants filter independently:
            ``total * prod(count_i / total)``.  A pattern with no
            constants estimates the full dataset.
        """
        total = self.dataset_size(model_ids, index_name)
        counts = {position: self.constant_count(model_ids, position,
                                                value_id)
                  for position, value_id in constants.items()}
        if total == 0:
            return 0.0, counts
        estimate = float(total)
        for count in counts.values():
            estimate *= count / total
        return estimate, counts

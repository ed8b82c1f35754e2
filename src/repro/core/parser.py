"""The triple insert pipeline (paper section 4.1).

When a triple is inserted:

1. the model must exist;
2. each component's text value is looked up in ``rdf_value$`` (inserted
   and assigned a VALUE_ID when new);
3. subject and object values are registered as NDM nodes in
   ``rdf_node$`` — "nodes are stored only once, regardless of the number
   of times they participate in triples";
4. blank nodes are tracked per model in ``rdf_blank_node$``;
5. ``rdf_link$`` is checked for the triple in the target model: if it is
   already there, the existing IDs are returned and COST is incremented
   ("the IDs for the previously inserted triple are returned ... no new
   inserts are made"); otherwise a new link row is created.

Deletion reverses the pipeline: COST decrements, the link goes away at
zero, and nodes are removed only when no other links touch them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.links import Context, LinkRow, LinkStore, LinkType
from repro.core.models import ModelInfo, ModelRegistry
from repro.core.schema import BLANK_NODE_TABLE, NODE_TABLE
from repro.core.values import ValueStore, references_reified, stored_name
from repro.db.dburi import DBUri
from repro.rdf.canonical import canonical_term
from repro.rdf.terms import BlankNode, RDFTerm, URI
from repro.rdf.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import Database


@dataclass(frozen=True, slots=True)
class InsertResult:
    """Outcome of one triple insert: the link row plus a newness flag."""

    link: LinkRow
    created: bool

    @property
    def link_id(self) -> int:
        return self.link.link_id


class TripleParser:
    """The section 4.1 pipeline bound to one database."""

    def __init__(self, database: "Database", values: ValueStore,
                 links: LinkStore, models: ModelRegistry) -> None:
        self._db = database
        self._values = values
        self._links = links
        self._models = models
        self._delta_hook = None

    def set_delta_hook(self, hook) -> None:
        """Register ``hook(model, added_triples, removed_triples)``.

        Called inside the insert/remove transaction whenever a model's
        triple set actually changes (a new link row, or a link row
        going away — COST-only updates don't fire).  The store uses
        this to maintain incremental rules indexes atomically with the
        base write: a hook failure rolls the base write back too.
        """
        self._delta_hook = hook

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def insert(self, model: ModelInfo, triple: Triple,
               context: Context = Context.DIRECT,
               count_cost: bool = True) -> InsertResult:
        """Insert ``triple`` into ``model``; dedupes against rdf_link$.

        ``context`` is INDIRECT for base triples created by the
        reification constructors (section 5.2).  ``count_cost`` is False
        for internal inserts that do not correspond to an application
        table row (the COST column counts application rows only).
        """
        with self._db.transaction():
            subject_id = self._register_node(model, triple.subject)
            predicate_id = self._values.lookup_or_insert(
                triple.predicate)
            object_id = self._register_node(model, triple.object)
            existing = self._links.find(
                model.model_id, subject_id, predicate_id, object_id)
            if existing is not None:
                return self._merge_existing(existing, context,
                                            count_cost)
            canon_id = self._canonical_object_id(triple.object,
                                                 object_id)
            link = self._links.insert(
                model_id=model.model_id,
                start_node_id=subject_id,
                p_value_id=predicate_id,
                end_node_id=object_id,
                canon_end_node_id=canon_id,
                link_type=LinkType.for_predicate(triple.predicate),
                context=context,
                reif_link=references_reified(map(stored_name, triple)))
            if not count_cost:
                # insert() seeds COST=1 assuming an application row;
                # internal inserts start at 0.
                self._links.decrement_cost(link.link_id)
                link = self._links.get(link.link_id)
            if self._delta_hook is not None:
                self._delta_hook(model, (triple,), ())
            return InsertResult(link, created=True)

    def _merge_existing(self, existing: LinkRow, context: Context,
                        count_cost: bool) -> InsertResult:
        """Reconcile a duplicate insert with the stored row."""
        if (existing.context is Context.INDIRECT
                and context is Context.DIRECT):
            # Section 5.2 note: an implied triple subsequently entered
            # as a fact flips from 'I' to 'D'.
            self._links.promote_context(existing.link_id)
        if count_cost:
            self._links.increment_cost(existing.link_id)
        return InsertResult(self._links.get(existing.link_id),
                            created=False)

    def _register_node(self, model: ModelInfo, term: RDFTerm) -> int:
        """VALUE_ID of ``term``, registering it in rdf_node$ (and
        rdf_blank_node$ for blank nodes)."""
        value_id = self._values.lookup_or_insert(term)
        self._db.execute(
            f'INSERT OR IGNORE INTO "{NODE_TABLE}" (node_id, node_type) '
            "VALUES (?, ?)", (value_id, term.value_type.value))
        if isinstance(term, BlankNode):
            self._db.execute(
                f'INSERT OR IGNORE INTO "{BLANK_NODE_TABLE}" '
                "(value_id, model_id, orig_label) VALUES (?, ?, ?)",
                (value_id, model.model_id, term.label))
        return value_id

    def _canonical_object_id(self, obj: RDFTerm, object_id: int) -> int:
        """VALUE_ID of the canonical form of the object."""
        canonical = canonical_term(obj)
        if canonical == obj:
            return object_id
        return self._values.lookup_or_insert(canonical)

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def remove(self, model: ModelInfo, triple: Triple,
               force: bool = False) -> bool:
        """Remove one application reference to ``triple``.

        COST decrements per application row; the link row disappears when
        COST reaches zero (or immediately with ``force=True``), and
        "the nodes attached to this link are not removed if there are
        other links connected to them" (section 4).  Returns True when
        the link row itself was deleted.
        """
        subject_id = self._values.find_id(triple.subject)
        predicate_id = self._values.find_id(triple.predicate)
        object_id = self._values.find_id(triple.object)
        if None in (subject_id, predicate_id, object_id):
            return False
        link = self._links.find(model.model_id, subject_id, predicate_id,
                                object_id)
        if link is None:
            return False
        with self._db.transaction():
            if not force:
                remaining = self._links.decrement_cost(link.link_id)
                if remaining > 0:
                    return False
            removed_triples = [triple]
            self._links.delete(link.link_id)
            self._cascade_reification(model, link.link_id,
                                      removed_triples)
            self._collect_node(subject_id)
            self._collect_node(object_id)
            if self._delta_hook is not None:
                self._delta_hook(model, (), tuple(removed_triples))
        return True

    def _link_triple(self, link: LinkRow) -> Triple:
        """The stored triple of a link row, resolved back to terms."""
        terms = self._values.get_terms(
            {link.start_node_id, link.p_value_id, link.end_node_id})
        predicate = terms[link.p_value_id]
        assert isinstance(predicate, URI)
        return Triple(terms[link.start_node_id], predicate,
                      terms[link.end_node_id])

    def _cascade_reification(self, model: ModelInfo, link_id: int,
                             removed_triples: list[Triple] | None = None
                             ) -> None:
        """Remove statements referencing the deleted triple's DBUri.

        The paper removes the link when a triple is deleted; its
        streamlined reification statement (and assertions about it)
        would otherwise dangle on a DBUri that no longer resolves.
        Cascades recursively, since a reification statement can itself
        be reified.
        """
        dburi_id = self._values.find_id(URI(DBUri.for_link(link_id).text))
        if dburi_id is None:
            return
        dependent_ids = [row["link_id"] for row in self._db.query_all(
            'SELECT link_id FROM "rdf_link$" WHERE model_id = ? '
            "AND (start_node_id = ? OR end_node_id = ?)",
            (model.model_id, dburi_id, dburi_id))]
        for dependent_id in dependent_ids:
            dependent = self._links.get(dependent_id)
            if removed_triples is not None:
                removed_triples.append(self._link_triple(dependent))
            self._links.delete(dependent_id)
            self._cascade_reification(model, dependent_id,
                                      removed_triples)
            self._collect_node(dependent.start_node_id)
            self._collect_node(dependent.end_node_id)

    def _collect_node(self, node_id: int) -> None:
        """Drop the rdf_node$ row when no links touch the node."""
        if self._links.node_in_use(node_id):
            return
        self._db.execute(
            f'DELETE FROM "{BLANK_NODE_TABLE}" WHERE value_id = ?',
            (node_id,))
        self._db.execute(
            f'DELETE FROM "{NODE_TABLE}" WHERE node_id = ?', (node_id,))

    def remove_model_triples(self, model: ModelInfo) -> int:
        """Bulk-delete every triple of a model (used by DROP model)."""
        removed = 0
        for link in list(self._links.iter_model(model.model_id)):
            self._links.delete(link.link_id)
            self._collect_node(link.start_node_id)
            self._collect_node(link.end_node_id)
            removed += 1
        self._db.execute(
            f'DELETE FROM "{BLANK_NODE_TABLE}" WHERE model_id = ?',
            (model.model_id,))
        return removed

"""Deterministic performance-shape tests via EXPLAIN QUERY PLAN.

Timing assertions flake; SQLite's plan output doesn't.  These tests pin
the access paths the paper's performance section depends on: indexed
lookups where the paper requires indexes, and the single-row retrieval
shape of the streamlined IS_REIFIED.
"""

import pytest

from repro.bench.datasets import load_oracle_uniprot
from repro.core.schema import LINK_TABLE
from repro.core.store import RDFStore
from repro.db.dburi import DBUri
from repro.inference.filters import parse_filter
from repro.inference.patterns import parse_pattern_list
from repro.inference.plan import build_plan
from repro.rdf.namespaces import AliasSet

_CURATED_BY = "urn:curatedBy"
_STATEMENT = ("<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
              "<http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement>")


def plan_for(database, sql, params=()):
    rows = database.query_all(f"EXPLAIN QUERY PLAN {sql}", params)
    return " | ".join(row["detail"] for row in rows)


@pytest.fixture(scope="module")
def fixture():
    loaded = load_oracle_uniprot(2_000)
    yield loaded
    loaded.store.close()


class TestAccessPaths:
    def test_link_lookup_uses_unique_index(self, fixture):
        plan = plan_for(
            fixture.store.database,
            f'SELECT * FROM "{LINK_TABLE}" WHERE model_id = ? '
            "AND start_node_id = ? AND p_value_id = ? "
            "AND end_node_id = ?", (1, 1, 1, 1))
        assert "USING" in plan and "INDEX" in plan.upper()
        assert "SCAN" not in plan.split("USING")[0]

    def test_subject_access_uses_index(self, fixture):
        plan = plan_for(
            fixture.store.database,
            f'SELECT * FROM "{LINK_TABLE}" WHERE model_id = ? '
            "AND start_node_id = ?", (1, 1))
        assert "rdf_link_uniq" in plan

    def test_apptable_indexed_lookup(self, fixture):
        # The section 7.2 function-based index backs this query.
        table = fixture.table.table_name
        plan = plan_for(
            fixture.store.database,
            f'SELECT * FROM "{table}" WHERE "triple_s_id" = ?', (1,))
        assert "sub_fbidx" in plan

    def test_apptable_scan_without_index(self):
        unindexed = load_oracle_uniprot(500, with_indexes=False)
        table = unindexed.table.table_name
        plan = plan_for(
            unindexed.store.database,
            f'SELECT * FROM "{table}" WHERE "triple_s_id" = ?', (1,))
        assert "SCAN" in plan
        unindexed.store.close()

    def test_value_lookup_uses_unique_index(self, fixture):
        plan = plan_for(
            fixture.store.database,
            'SELECT value_id FROM "rdf_value$" WHERE value_name = ? '
            "AND value_type = ? AND IFNULL(literal_type, '') = ? "
            "AND IFNULL(language_type, '') = ?",
            ("x", "UR", "", ""))
        assert "rdf_value_uniq" in plan

    def test_jena2_subject_find_uses_index(self, fixture):
        from repro.bench.datasets import load_jena_uniprot

        jena = load_jena_uniprot(500)
        plan = plan_for(
            jena.jena.database,
            "SELECT * FROM jena_uniprot_stmt WHERE subj = ?", ("x",))
        assert "jena_uniprot_stmt_subj" in plan
        jena.jena.close()

    def test_jena2_is_reified_uses_spo_index(self, fixture):
        from repro.bench.datasets import load_jena_uniprot

        jena = load_jena_uniprot(500)
        plan = plan_for(
            jena.jena.database,
            "SELECT stmt_uri FROM jena_uniprot_reif "
            "WHERE subj = ? AND prop = ? AND obj = ?", ("a", "b", "c"))
        assert "jena_uniprot_reif_spo" in plan
        jena.jena.close()


@pytest.fixture(scope="module")
def reified():
    """Half of 1,200 multi-valued statements reified, each curated by
    one of 20 curators.  ``(?r rdf:type rdf:Statement)`` holds 600
    rows, but ``sqlite_stat1``'s per-index averages make an exact
    ``(p, o)`` seek look like fewer rows than a ``(s, p)`` one."""
    store = RDFStore()
    store.create_model("m")
    with store.database.transaction():
        for i in range(1_200):
            link = store.insert_triple(
                "m", f"<urn:s{i // 4}>", "<urn:kw>", f"<urn:o{i}>")
            if i % 2:
                store.assert_about("m", f"<urn:c{i // 2 % 20}>",
                                   f"<{_CURATED_BY}>", link.rdf_t_id)
    store.database.analyze()
    yield store
    store.close()


def match_plan(store, query, filter_text=None):
    """The planner's plan for ``query`` over model m, and its EXPLAIN
    QUERY PLAN ``SEARCH``/``SCAN`` lines."""
    plan = build_plan(store, parse_pattern_list(query, AliasSet()),
                      ["m"], [], filter_text and parse_filter(filter_text))
    rows = store.database.query_all(f"EXPLAIN QUERY PLAN {plan.sql}",
                                    plan.params)
    return plan, [row["detail"] for row in rows
                  if row["detail"].startswith(("SEARCH", "SCAN"))]


class TestObjectAccessPaths:
    """Every object-bound pattern seeks ``end_node_id``, the column the
    dataset exposes as ``o``; no plan scans for it."""

    def test_bound_predicate_and_object_seek_three_columns(self, reified):
        _, lines = match_plan(reified, "(?s <urn:kw> <urn:o1>)")
        assert lines == ["SEARCH rdf_link$ USING INDEX rdf_link_pos "
                         "(model_id=? AND p_value_id=? AND "
                         "end_node_id=?)"]

    def test_bound_object_alone_seeks_osp(self, reified):
        _, lines = match_plan(reified, "(?s ?p <urn:o1>)")
        assert len(lines) == 1
        assert "rdf_link_osp (model_id=? AND end_node_id=?)" in lines[0]

    def test_provenance_probe_seeks_three_columns(self, reified):
        link = reified.find_link("m", "<urn:s0>", "<urn:kw>", "<urn:o1>")
        _, lines = match_plan(
            reified, f"(?who <{_CURATED_BY}> "
                     f"<{DBUri.for_link(link.link_id).text}>)")
        assert lines == ["SEARCH rdf_link$ USING INDEX rdf_link_pos "
                         "(model_id=? AND p_value_id=? AND "
                         "end_node_id=?)"]


class TestJoinOrderExecuted:
    def test_reif_join_runs_in_planned_order(self, reified):
        plan, lines = match_plan(
            reified, f"(?r {_STATEMENT}) "
                     f"(<urn:c7> <{_CURATED_BY}> ?r)")
        assert plan.join_order[0].source_index == 1  # the curator's
        assert len(lines) == 2
        assert lines[0] == ("SEARCH rdf_link$ USING COVERING INDEX "
                            "rdf_link_uniq (model_id=? AND "
                            "start_node_id=? AND p_value_id=?)")

    def test_filter_lookup_follows_its_binding_pattern(self, reified):
        """A pushed filter's rdf_value$ lookup runs right after the
        pattern that binds its variable, before the next pattern."""
        plan, lines = match_plan(
            reified, "(?s <urn:kw> ?o) (?s <urn:kw> <urn:o1>)",
            '?o LIKE "urn:o1%"')
        assert plan.join_order[0].source_index == 1
        assert plan.pushed_filter is not None
        assert [line.split(" USING")[0] for line in lines] == \
            ["SEARCH rdf_link$", "SEARCH rdf_link$", "SEARCH v0"]
        plan, lines = match_plan(
            reified, "(?s <urn:kw> <urn:o1>) (?s <urn:kw> ?o)",
            '?s LIKE "urn:s%"')
        assert [line.split(" USING")[0] for line in lines] == \
            ["SEARCH rdf_link$", "SEARCH v0", "SEARCH rdf_link$"]

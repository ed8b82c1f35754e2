"""EXPLAIN surface tests: ``sdo_rdf_match(..., explain=True)`` and the
``repro explain`` CLI command, over every benchmark query shape."""

import io
import json

import pytest

from repro.cli import main
from repro.inference.match import MatchExplanation, sdo_rdf_match


@pytest.fixture
def loaded(store, cia_table):
    cia_table.insert(1, "cia", "gov:files", "gov:terrorSuspect",
                     "id:JohnDoe")
    cia_table.insert(2, "cia", "gov:files", "gov:terrorSuspect",
                     "id:JaneDoe")
    cia_table.insert(3, "cia", "id:JohnDoe", "gov:age", '"42"')
    cia_table.insert(4, "cia", "id:JohnDoe", "gov:knows", "id:JaneDoe")
    return store


def _explain(store, query, **kwargs):
    return sdo_rdf_match(store, query, ["cia"], explain=True, **kwargs)


#: The query shapes the planner was first benchmarked on.
SHAPES = [
    ("anchored subject", "(id:JohnDoe ?p ?o)", {}),
    ("anchored predicate", "(?s gov:terrorSuspect ?o)", {}),
    ("two-pattern join",
     "(gov:files gov:terrorSuspect ?p) (?p gov:age ?age)", {}),
    ("three-pattern join",
     "(gov:files gov:terrorSuspect ?p) (?p gov:knows ?q) "
     "(?p gov:age ?age)", {}),
    ("ground existence",
     "(gov:files gov:terrorSuspect id:JohnDoe)", {}),
    ("filter", "(gov:files gov:terrorSuspect ?p)",
     {"filter": '?p LIKE "id:J%"'}),
]


class TestExplainShapes:
    @pytest.mark.parametrize("label,query,kwargs",
                             SHAPES, ids=[s[0] for s in SHAPES])
    def test_every_benchmark_shape_is_explainable(self, loaded, label,
                                                  query, kwargs):
        explanation = _explain(loaded, query, **kwargs)
        assert isinstance(explanation, MatchExplanation)
        payload = explanation.as_dict()
        assert payload["plan_cache"] == "miss"
        plan = payload["plan"]
        assert plan["sql"]
        assert plan["dataset_size"] == 4
        assert plan["join_order"]
        for step in plan["join_order"]:
            assert "estimated_rows" in step
            assert "constant_counts" in step
        # The same shape explains as a cache hit the second time.
        assert _explain(loaded, query, **kwargs).cache == "hit"

    def test_shape_hit_explains_its_own_constant(self, loaded):
        # id:JohnDoe is the object of 1 triple, id:JaneDoe of 2; both
        # queries share one cached template.
        first = _explain(loaded, "(?s ?p id:JohnDoe)").as_dict()
        second = _explain(loaded, "(?s ?p id:JaneDoe)").as_dict()
        assert first["plan_cache"] == "miss"
        assert second["plan_cache"] == "hit"
        assert second["query"] == "(?s ?p id:JaneDoe)"
        step = second["plan"]["join_order"][0]
        assert "JaneDoe" in step["pattern"]
        assert "JohnDoe" not in step["pattern"]
        assert step["constant_counts"] == {"o": 2}
        assert step["estimated_rows"] == 2.0
        assert first["plan"]["join_order"][0]["constant_counts"] == \
            {"o": 1}
        assert second["plan"]["dataset_size"] == 4

    def test_explain_does_not_execute(self, loaded):
        _explain(loaded, "(?s ?p ?o)")
        # No match.sql span ran; nothing needed resolving.  A direct
        # probe: explain on a store is side-effect free for results.
        rows = sdo_rdf_match(loaded, "(?s ?p ?o)", ["cia"])
        assert len(rows) == 4

    def test_explain_reports_join_reorder(self, loaded):
        explanation = _explain(
            loaded, "(?s ?p ?o) (id:JohnDoe gov:age ?age)")
        assert explanation.plan.reordered
        text = explanation.render()
        assert "reordered" in text
        assert "est_rows" in text

    def test_explain_impossible_query(self, loaded):
        explanation = _explain(loaded, "(id:Nobody ?p ?o)")
        assert explanation.plan.sql is None
        assert "impossible" in explanation.render()

    def test_render_mentions_pushdown(self, loaded):
        explanation = _explain(
            loaded, "(?s gov:age ?age)",
            filter='?age LIKE "4%"', order_by="age", limit=3)
        text = explanation.render()
        assert "pushed filter" in text
        assert "?age (pushed to SQL)" in text
        assert "3 (pushed to SQL)" in text
        assert "sql:" in text

    def test_naive_explain_is_bypass(self, loaded):
        explanation = _explain(loaded, "(?s ?p ?o)", optimize=False)
        assert explanation.cache == "bypass"
        assert not explanation.plan.optimized


class TestExplainCLI:
    @pytest.fixture
    def db_path(self, tmp_path):
        path = str(tmp_path / "cli.db")
        main(["create-model", path, "gov"], out=io.StringIO())
        main(["insert", path, "gov", "id:a", "gov:knows", "id:b"],
             out=io.StringIO())
        main(["insert", path, "gov", "id:b", "gov:knows", "id:c"],
             out=io.StringIO())
        return path

    def test_human_output(self, db_path):
        out = io.StringIO()
        code = main(["explain", db_path,
                     "(?a gov:knows ?b) (?b gov:knows ?c)",
                     "-m", "gov"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "SDO_RDF_MATCH plan" in text
        assert "join order" in text
        assert "plan cache:      miss" in text
        assert "WITH dataset" in text

    def test_json_output(self, db_path):
        out = io.StringIO()
        code = main(["explain", db_path, "(?a gov:knows ?b)",
                     "-m", "gov", "--json"], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["plan_cache"] == "miss"
        assert payload["plan"]["join_order"]
        assert payload["plan"]["sql"].startswith("WITH dataset")

    def test_naive_flag(self, db_path):
        out = io.StringIO()
        code = main(["explain", db_path, "(?a gov:knows ?b)",
                     "-m", "gov", "--naive", "--json"], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["plan_cache"] == "bypass"
        assert payload["plan"]["optimized"] is False

    def test_unknown_model_is_an_error(self, db_path):
        out = io.StringIO()
        code = main(["explain", db_path, "(?a ?b ?c)", "-m", "ghost"],
                    out=out)
        assert code == 1
        assert "error" in out.getvalue()

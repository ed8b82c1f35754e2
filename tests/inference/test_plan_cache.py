"""Plan-cache behaviour through the full match path: hits on repeats,
invalidation on every triple-visible write."""

import pytest

from repro.core.bulkload import bulk_load_ntriples
from repro.inference.match import sdo_rdf_match
from repro.inference.patterns import parse_pattern_list
from repro.inference.plan import build_plan, plan_key
from repro.rdf.namespaces import AliasSet


@pytest.fixture
def loaded(store, cia_table):
    cia_table.insert(1, "cia", "gov:files", "gov:terrorSuspect",
                     "id:JohnDoe")
    cia_table.insert(2, "cia", "id:JohnDoe", "gov:age", '"42"')
    return store


QUERY = "(gov:files gov:terrorSuspect ?name)"


def _run(store, query=QUERY, **kwargs):
    return sdo_rdf_match(store, query, ["cia"], **kwargs)


class TestCacheHits:
    def test_repeat_query_hits(self, loaded):
        _run(loaded)
        _run(loaded)
        stats = loaded.plan_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_hit_returns_same_rows(self, loaded):
        first = _run(loaded)
        second = _run(loaded)
        assert first == second
        assert loaded.plan_cache.stats()["hits"] == 1

    def test_different_shapes_are_different_entries(self, loaded):
        _run(loaded)
        _run(loaded, limit=1)
        _run(loaded, order_by="name")
        assert loaded.plan_cache.stats()["misses"] == 3

    def test_impossible_plans_are_cached_too(self, loaded):
        query = "(gov:files gov:terrorSuspect id:Nobody)"
        assert _run(loaded, query) == []
        assert _run(loaded, query) == []
        assert loaded.plan_cache.stats()["hits"] == 1

    def test_unknown_constant_does_not_poison_its_shape(self, loaded):
        assert _run(loaded, "(id:Nobody gov:terrorSuspect ?name)") == []
        rows = _run(loaded)  # same shape, a known subject
        assert [row["name"] for row in rows] == ["id:JohnDoe"]
        stats = loaded.plan_cache.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1

    def test_one_template_per_single_pattern_shape(self, loaded):
        assert _run(loaded, "(id:JohnDoe gov:age ?v)")[0]["v"] == "42"
        assert _run(loaded, "(gov:files gov:age ?v)") == []
        rows = _run(loaded, "(gov:files  gov:terrorSuspect ?v)")
        assert [row["v"] for row in rows] == ["id:JohnDoe"]
        stats = loaded.plan_cache.stats()
        assert stats["entries"] == 1 and stats["hits"] == 2

    def test_multi_pattern_queries_keep_their_constants(self, loaded):
        _run(loaded, "(gov:files gov:terrorSuspect ?p) (?p gov:age ?a)")
        _run(loaded, "(id:JohnDoe gov:terrorSuspect ?p) (?p gov:age ?a)")
        assert loaded.plan_cache.stats()["entries"] == 2

    def test_staged_sequence_binds_each_subject(self, loaded):
        """The call sequence the end-to-end benchmark makes: two
        subjects share one template, and each gets its own rows."""
        loaded.insert_triple("cia", "id:JaneDoe", "gov:age", '"37"')
        aliases = AliasSet()
        answers = {}
        for subject in ("id:JohnDoe", "id:JaneDoe"):
            query = f"({subject} gov:age ?age)"
            key = plan_key(query, ["cia"], (), aliases, None, None, None)
            plan = loaded.plan_cache.lookup(key,
                                            loaded.database.data_version)
            if plan is None:
                plan = build_plan(loaded,
                                  parse_pattern_list(query, aliases),
                                  ["cia"], ())
                loaded.plan_cache.store(key, plan)
            assert plan.sql is not None
            fetched = loaded.database.query_all(plan.sql, plan.params)
            answers[subject] = {loaded.lexical_of(raw[plan.projection[
                "age"]]) for raw in fetched}
        assert answers == {"id:JohnDoe": {"42"}, "id:JaneDoe": {"37"}}
        stats = loaded.plan_cache.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1

    def test_naive_mode_bypasses_cache(self, loaded):
        _run(loaded, optimize=False)
        _run(loaded, optimize=False)
        stats = loaded.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestInvalidation:
    def test_insert_invalidates(self, loaded):
        _run(loaded)
        loaded.insert_triple("cia", "gov:files", "gov:terrorSuspect",
                             "id:JaneDoe")
        rows = _run(loaded)
        stats = loaded.plan_cache.stats()
        assert stats["hits"] == 0
        assert stats["invalidations"] == 1
        assert {row["name"] for row in rows} == {"id:JohnDoe",
                                                 "id:JaneDoe"}

    def test_remove_invalidates(self, loaded):
        _run(loaded)
        loaded.remove_triple("cia", "gov:files", "gov:terrorSuspect",
                             "id:JohnDoe", force=True)
        assert _run(loaded) == []
        assert loaded.plan_cache.stats()["invalidations"] == 1

    def test_bulk_load_invalidates(self, loaded, tmp_path):
        _run(loaded)
        ntriples = tmp_path / "new.nt"
        ntriples.write_text(
            "<urn:gov:files> <urn:gov:terrorSuspect> <urn:id:X> .\n")
        bulk_load_ntriples(loaded, "cia", str(ntriples))
        _run(loaded)
        assert loaded.plan_cache.stats()["invalidations"] == 1

    def test_empty_bulk_load_keeps_cache(self, loaded, tmp_path):
        _run(loaded)
        ntriples = tmp_path / "empty.nt"
        ntriples.write_text("")
        bulk_load_ntriples(loaded, "cia", str(ntriples))
        _run(loaded)
        assert loaded.plan_cache.stats()["hits"] == 1

    def test_model_drop_and_recreate_invalidates(self, loaded):
        _run(loaded)
        loaded.drop_model("cia")
        loaded.create_model("cia")
        assert _run(loaded) == []
        assert loaded.plan_cache.stats()["hits"] == 0

    def test_rules_index_creation_invalidates(self, loaded, inference):
        _run(loaded)
        inference.create_rulebase("rb")
        inference.insert_rule(
            "rb", "r1", "(?x gov:age ?a)", None,
            "(gov:files gov:terrorSuspect ?x)")
        inference.create_rules_index("idx", ["cia"], ["rb"])
        _run(loaded)
        assert loaded.plan_cache.stats()["hits"] == 0


class TestPlanCacheMetrics:
    def test_counter_names(self):
        from repro.core.store import RDFStore

        with RDFStore(observe=True) as store:
            store.create_model("m")
            store.insert_triple("m", "id:a", "p:b", "id:c")
            sdo_rdf_match(store, "(?s ?p ?o)", ["m"])
            sdo_rdf_match(store, "(?s ?p ?o)", ["m"])
            sdo_rdf_match(store, "(?s ?p ?o) (id:a ?q ?r)", ["m"])
            counters = store.observer.metrics.as_dict()["counters"]
            assert counters["match.plan_cache_misses"] == 2
            assert counters["match.plan_cache_hits"] == 1


class TestDataVersion:
    def test_monotonic_on_writes(self, store):
        before = store.database.data_version
        store.create_model("m")
        after_model = store.database.data_version
        store.insert_triple("m", "id:a", "p:b", "id:c")
        after_insert = store.database.data_version
        assert before < after_model < after_insert

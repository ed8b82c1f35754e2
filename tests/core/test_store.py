"""Tests for the RDFStore facade (repro.core.store)."""

import pytest

from repro.core.links import Context
from repro.core.store import RDFStore
from repro.db.connection import Database
from repro.errors import ReificationError, TripleNotFoundError
from repro.rdf.triple import Triple


class TestLifecycle:
    def test_in_memory_default(self):
        with RDFStore() as store:
            assert store.database.path == ":memory:"

    def test_path_accepted(self, tmp_path):
        path = tmp_path / "rdf.db"
        with RDFStore(path) as store:
            store.create_model("m")
            store.insert_triple("m", "s:x", "p:x", "o:x")
        with RDFStore(path) as store:
            assert store.is_triple("m", "s:x", "p:x", "o:x")

    def test_existing_database_accepted(self):
        database = Database()
        store = RDFStore(database)
        assert store.database is database
        store.close()

    def test_reopen_same_database(self):
        database = Database()
        first = RDFStore(database)
        first.create_model("m")
        second = RDFStore(database)  # idempotent schema creation
        assert second.model_exists("m")
        database.close()

    def test_shards_kwarg_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            RDFStore(tmp_path / "rdf.db", shards=2)
        assert not (tmp_path / "rdf.db").exists()


class TestTripleAPI:
    def test_insert_and_iterate(self, store):
        store.create_model("m")
        store.insert_triple("m", "s:a", "p:x", "o:a")
        store.insert_triple("m", "s:b", "p:x", "o:b")
        triples = set(store.iter_model_triples("m"))
        assert Triple.from_text("s:a", "p:x", "o:a") in triples
        assert len(triples) == 2

    def test_insert_many(self, store):
        store.create_model("m")
        created = store.insert_many("m", [
            Triple.from_text("s:a", "p:x", "o:a"),
            Triple.from_text("s:a", "p:x", "o:a"),  # duplicate
            Triple.from_text("s:b", "p:x", "o:b"),
        ])
        assert created == 2

    def test_insert_many_rolls_back_on_error(self, store):
        store.create_model("m")

        def triples():
            yield Triple.from_text("s:a", "p:x", "o:a")
            raise RuntimeError("stream broke mid-way")

        with pytest.raises(RuntimeError):
            store.insert_many("m", triples())
        # The whole batch rolled back: nothing landed.
        assert store.links.count() == 0

    def test_remove_triple(self, store):
        store.create_model("m")
        store.insert_triple("m", "s:x", "p:x", "o:x")
        assert store.remove_triple("m", "s:x", "p:x", "o:x")
        assert not store.is_triple("m", "s:x", "p:x", "o:x")

    def test_triple_of_roundtrip(self, store):
        store.create_model("m")
        obj = store.insert_triple("m", "s:x", "p:x", '"literal value"')
        triple = store.triple_of(obj.rdf_t_id)
        assert triple == Triple.from_text("s:x", "p:x",
                                          '"literal value"')

    def test_get_triple_s(self, store):
        store.create_model("m")
        obj = store.insert_triple("m", "s:x", "p:x", "o:x")
        again = store.get_triple_s(obj.rdf_t_id)
        assert again == obj
        assert again.get_subject() == "s:x"

    def test_drop_model_removes_triples(self, store):
        store.create_model("m")
        store.insert_triple("m", "s:x", "p:x", "o:x")
        assert store.drop_model("m") == 1
        assert not store.model_exists("m")


class TestReificationAPI:
    @pytest.fixture
    def base(self, store):
        store.create_model("m")
        return store.insert_triple("m", "gov:files", "gov:terrorSuspect",
                                   "id:JohnDoe")

    def test_reify_creates_single_statement(self, store, base):
        before = store.links.count()
        store.reify_triple("m", base.rdf_t_id)
        # One new triple, not four (the streamlined scheme).
        assert store.links.count() == before + 1

    def test_reify_sets_reif_link(self, store, base):
        reif = store.reify_triple("m", base.rdf_t_id)
        assert store.links.get(reif.rdf_t_id).reif_link

    def test_reify_missing_raises(self, store, base):
        with pytest.raises(TripleNotFoundError):
            store.reify_triple("m", 999_999)

    def test_is_reified_id(self, store, base):
        assert not store.is_reified_id("m", base.rdf_t_id)
        store.reify_triple("m", base.rdf_t_id)
        assert store.is_reified_id("m", base.rdf_t_id)

    def test_assert_about_reifies_if_needed(self, store, base):
        assertion = store.assert_about("m", "gov:MI5", "gov:source",
                                       base.rdf_t_id)
        assert store.is_reified_id("m", base.rdf_t_id)
        assert assertion.get_object() == \
            f"/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID={base.rdf_t_id}]"

    def test_assert_about_reuses_reification(self, store, base):
        store.reify_triple("m", base.rdf_t_id)
        count_before = store.links.count()
        store.assert_about("m", "gov:MI5", "gov:source", base.rdf_t_id)
        # Only the assertion triple was added.
        assert store.links.count() == count_before + 1

    def test_assert_about_missing_raises(self, store, base):
        with pytest.raises(TripleNotFoundError):
            store.assert_about("m", "gov:MI5", "gov:source", 999_999)

    def test_assert_implied_context(self, store, base):
        store.assert_implied("m", "gov:Interpol", "gov:source",
                             "gov:files", "gov:terrorSuspect",
                             "id:JohnDoeJr")
        link = store.find_link("m", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoeJr")
        assert link.context is Context.INDIRECT
        assert link.cost == 0  # no application row references the base

    def test_assert_implied_on_existing_fact_stays_direct(self, store,
                                                          base):
        store.assert_implied("m", "gov:MI5", "gov:source",
                             "gov:files", "gov:terrorSuspect",
                             "id:JohnDoe")
        link = store.find_link("m", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoe")
        assert link.context is Context.DIRECT

    def test_implied_then_fact_promotes(self, store, base):
        store.assert_implied("m", "gov:Interpol", "gov:source",
                             "gov:files", "gov:terrorSuspect",
                             "id:JohnDoeJr")
        store.insert_triple("m", "gov:files", "gov:terrorSuspect",
                            "id:JohnDoeJr")
        link = store.find_link("m", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoeJr")
        assert link.context is Context.DIRECT

    def test_reified_target_resolution(self, store, base):
        reif = store.reify_triple("m", base.rdf_t_id)
        dburi = reif.get_subject()
        target = store.reified_target(dburi)
        assert target.link_id == base.rdf_t_id

    def test_reified_target_bad_uri(self, store, base):
        with pytest.raises(ReificationError):
            store.reified_target("/ORADB/MDSYS/RDF_VALUE$/ROW[VALUE_ID=1]")

    def test_remove_cascades_reification(self, store, base):
        # Deleting a reified fact also removes its reification
        # statement and assertions about it — no dangling DBUris.
        store.reify_triple("m", base.rdf_t_id)
        store.assert_about("m", "gov:MI5", "gov:source", base.rdf_t_id)
        assert store.links.count() == 3
        store.remove_triple("m", "gov:files", "gov:terrorSuspect",
                            "id:JohnDoe")
        assert store.links.count() == 0
        from repro.core.integrity import check_integrity

        assert check_integrity(store) == []

    def test_cascade_handles_nested_reification(self, store, base):
        # Reify the reification statement itself, then delete the base.
        reif = store.reify_triple("m", base.rdf_t_id)
        store.reify_triple("m", reif.rdf_t_id)
        store.remove_triple("m", "gov:files", "gov:terrorSuspect",
                            "id:JohnDoe")
        assert store.links.count() == 0

    def test_is_reified_text_api(self, store, base):
        store.reify_triple("m", base.rdf_t_id)
        assert store.is_reified("m", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoe")
        assert not store.is_reified("m", "gov:files", "gov:terrorSuspect",
                                    "id:JaneDoe")


class TestNetworkAPI:
    def test_universe_and_partition(self, store):
        store.create_model("m1")
        store.create_model("m2")
        store.insert_triple("m1", "s:a", "p:x", "o:a")
        store.insert_triple("m2", "s:b", "p:x", "o:b")
        assert store.network().link_count() == 2
        assert store.network("m1").link_count() == 1

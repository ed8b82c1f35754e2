"""Tests for the planner statistics layer (repro.inference.stats)."""

import pytest

from repro.inference.stats import MatchStatistics
from repro.rdf.terms import Literal, URI

_XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


@pytest.fixture
def loaded(store, cia_table):
    cia_table.insert(1, "cia", "gov:files", "gov:terrorSuspect",
                     "id:JohnDoe")
    cia_table.insert(2, "cia", "gov:files", "gov:terrorSuspect",
                     "id:JaneDoe")
    cia_table.insert(3, "cia", "id:JohnDoe", "gov:age", '"42"')
    return store


def _model_ids(store, *names):
    return [store.models.get(name).model_id for name in names]


class TestDatasetSize:
    def test_counts_model_triples(self, loaded):
        stats = MatchStatistics(loaded)
        assert stats.dataset_size(_model_ids(loaded, "cia")) == 3

    def test_sums_across_models(self, loaded):
        loaded.create_model("fbi")
        loaded.insert_triple("fbi", "id:X", "gov:age", '"9"')
        stats = MatchStatistics(loaded)
        assert stats.dataset_size(_model_ids(loaded, "cia", "fbi")) == 4

    def test_refreshes_after_insert(self, loaded):
        stats = MatchStatistics(loaded)
        models = _model_ids(loaded, "cia")
        assert stats.dataset_size(models) == 3
        loaded.insert_triple("cia", "id:New", "gov:age", '"1"')
        assert stats.dataset_size(models) == 4


class TestConstantCount:
    def test_predicate_count(self, loaded):
        stats = MatchStatistics(loaded)
        predicate = loaded.values.find_id(URI("gov:terrorSuspect"))
        assert stats.constant_count(_model_ids(loaded, "cia"), "p",
                                    predicate) == 2

    def test_subject_count(self, loaded):
        stats = MatchStatistics(loaded)
        subject = loaded.values.find_id(URI("id:JohnDoe"))
        assert stats.constant_count(_model_ids(loaded, "cia"), "s",
                                    subject) == 1

    def test_object_count(self, loaded):
        stats = MatchStatistics(loaded)
        obj = loaded.values.find_id(URI("id:JohnDoe"))
        assert stats.constant_count(_model_ids(loaded, "cia"), "o",
                                    obj) == 1

    def test_non_canonical_object_count_is_exact(self, loaded):
        """"01"^^xsd:integer and "1"^^xsd:integer share a canonical
        form; the count keys the stored object, as matching does."""
        loaded.insert_triple("cia", "id:A", "gov:rank",
                             '"01"^^xsd:integer')
        loaded.insert_triple("cia", "id:B", "gov:rank",
                             '"1"^^xsd:integer')
        stats = MatchStatistics(loaded)
        models = _model_ids(loaded, "cia")
        for lexical in ("01", "1"):
            obj = loaded.values.find_id(Literal(lexical,
                                                datatype=URI(_XSD_INT)))
            assert stats.constant_count(models, "o", obj) == 1


class TestEstimateRows:
    def test_no_constants_estimates_dataset(self, loaded):
        stats = MatchStatistics(loaded)
        estimate, counts = stats.estimate_rows(
            _model_ids(loaded, "cia"), {})
        assert estimate == 3.0
        assert counts == {}

    def test_selective_constant_shrinks_estimate(self, loaded):
        stats = MatchStatistics(loaded)
        subject = loaded.values.find_id(URI("id:JohnDoe"))
        estimate, counts = stats.estimate_rows(
            _model_ids(loaded, "cia"), {"s": subject})
        assert estimate == pytest.approx(1.0)
        assert counts == {"s": 1}

    def test_independence_assumption(self, loaded):
        stats = MatchStatistics(loaded)
        predicate = loaded.values.find_id(URI("gov:terrorSuspect"))
        subject = loaded.values.find_id(URI("gov:files"))
        estimate, _ = stats.estimate_rows(
            _model_ids(loaded, "cia"), {"s": subject, "p": predicate})
        # total * (2/3) * (2/3)
        assert estimate == pytest.approx(3 * (2 / 3) * (2 / 3))

    def test_zero_count_means_zero_estimate(self, loaded):
        # id:JaneDoe exists in rdf_value$ but only as an object; its
        # subject-position count is 0, so nothing can match.
        stats = MatchStatistics(loaded)
        subject = loaded.values.find_id(URI("id:JaneDoe"))
        estimate, counts = stats.estimate_rows(
            _model_ids(loaded, "cia"), {"s": subject})
        assert estimate == 0.0
        assert counts["s"] == 0


class TestCacheBehaviour:
    def test_figures_are_cached(self, loaded):
        stats = MatchStatistics(loaded)
        models = _model_ids(loaded, "cia")
        stats.dataset_size(models)
        stats.dataset_size(models)
        assert len(stats) == 1

    def test_write_invalidates_cached_figures(self, loaded):
        stats = MatchStatistics(loaded)
        models = _model_ids(loaded, "cia")
        stats.dataset_size(models)
        loaded.insert_triple("cia", "id:New", "gov:age", '"1"')
        # next figure resyncs: the stale entry is gone
        assert stats.dataset_size(models) == 4
        assert len(stats) == 1

    def test_clear(self, loaded):
        stats = MatchStatistics(loaded)
        stats.dataset_size(_model_ids(loaded, "cia"))
        stats.clear()
        assert len(stats) == 0

    def test_store_property_is_shared(self, loaded):
        assert loaded.match_statistics is loaded.match_statistics

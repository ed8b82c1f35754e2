"""The point probes (``find_link``, ``is_triple``, ``is_reified``,
``is_reified_id``): their statement counts, the text-keyed VALUE_IDs
they read, and the caches those ids live in — across rollbacks and
across a second store's commits."""

import pytest

from repro.core.bulkload import BulkLoader
from repro.core.integrity import check_integrity
from repro.core.store import RDFStore
from repro.errors import ModelNotFoundError, TermError
from repro.rdf.terms import URI, Literal
from repro.rdf.triple import Triple

_BASE = ("<urn:a>", "<urn:p>", "<urn:b>")
_UNREIFIED = ("<urn:a>", "<urn:p>", "<urn:c>")


@pytest.fixture
def traced(tmp_path):
    """A file-backed, observed store: ``(a p b)`` reified, ``(a p c)``
    not."""
    with RDFStore(tmp_path / "probes.db", observe=True,
                  durability="durable") as store:
        store.create_model("m")
        handle = store.insert_triple("m", *_BASE)
        store.reify_triple("m", handle.rdf_t_id)
        store.insert_triple("m", *_UNREIFIED)
        yield store


def _statements(store, probe):
    """Run ``probe`` warm; return (statements through the Database
    wrapper, raw statements the engine saw)."""
    probe()
    probe()
    sql = store.observer.sql
    sql.reset()
    probe()
    return (sum(stats.count for stats in sql.statements()),
            sql.engine_statements)


class TestWarmStatementCounts:
    """A warm probe runs one statement, plus the snapshot poll (one
    ``PRAGMA data_version`` on the raw connection, which the engine
    sees and the wrapper does not)."""

    def test_is_reified_true(self, traced):
        counts = _statements(
            traced, lambda: traced.is_reified("m", *_BASE))
        assert traced.is_reified("m", *_BASE) is True
        assert counts == (1, 2)

    def test_is_reified_false(self, traced):
        counts = _statements(
            traced, lambda: traced.is_reified("m", *_UNREIFIED))
        assert traced.is_reified("m", *_UNREIFIED) is False
        assert counts == (1, 2)

    def test_is_reified_id(self, traced):
        link_id = traced.find_link("m", *_BASE).link_id
        counts = _statements(
            traced, lambda: traced.is_reified_id("m", link_id))
        assert traced.is_reified_id("m", link_id) is True
        assert counts == (1, 2)

    def test_find_link(self, traced):
        counts = _statements(
            traced, lambda: traced.find_link("m", *_BASE))
        assert traced.find_link("m", *_BASE) is not None
        assert counts == (1, 2)

    def test_is_triple_builds_no_link_row(self, traced):
        counts = _statements(
            traced, lambda: traced.is_triple("m", *_UNREIFIED))
        assert counts == (1, 2)
        shapes = [stats.statement
                  for stats in traced.observer.sql.statements()]
        # The tracer normalizes the literal 1 to ?: not a SELECT *.
        assert len(shapes) == 1
        assert shapes[0].startswith('SELECT ? FROM "rdf_link$"')


class TestTextKeyedRoleChecks:
    """A text cached by one probe keeps the checks of its role in the
    next: the error is the one ``Triple.from_text`` raises."""

    @pytest.mark.parametrize("probe", ["find_link", "is_triple",
                                       "is_reified"])
    def test_literal_subject(self, store, probe):
        store.create_model("m")
        store.insert_triple("m", "<urn:a>", "<urn:p>", '"lit"')
        getattr(store, probe)("m", "<urn:a>", "<urn:p>", '"lit"')
        with pytest.raises(TermError, match="subject cannot be a literal"):
            getattr(store, probe)("m", '"lit"', "<urn:p>", "<urn:a>")

    @pytest.mark.parametrize("probe", ["find_link", "is_triple",
                                       "is_reified"])
    def test_non_uri_predicate(self, store, probe):
        store.create_model("m")
        store.insert_triple("m", "_:x", "<urn:p>", "<urn:b>")
        getattr(store, probe)("m", "_:x", "<urn:p>", "<urn:b>")
        with pytest.raises(TermError, match="must parse to a URI"):
            getattr(store, probe)("m", "<urn:b>", "_:x", "<urn:b>")

    def test_cache_bound_clears_the_text_map(self, store):
        store.values._cache_size = 4
        store.create_model("m")
        for index in range(6):
            store.insert_triple("m", f"<urn:s{index}>", "<urn:p>",
                                f"<urn:o{index}>")
            assert store.is_triple("m", f"<urn:s{index}>", "<urn:p>",
                                   f"<urn:o{index}>")
            assert len(store.values._text_cache) <= 4


class TestRollbackDropsCachedIds:
    """A rollback frees the VALUE_IDs (and MODEL_IDs) it discarded;
    SQLite hands them out again, so no cache may keep them."""

    def test_outer_rollback(self, store):
        store.create_model("m")
        with pytest.raises(RuntimeError):
            with store.database.transaction():
                store.insert_triple("m", *_BASE)
                assert store.is_triple("m", *_BASE)
                raise RuntimeError("abort")
        handle = store.insert_triple("m", "<urn:c>", "<urn:q>",
                                     "<urn:d>")
        assert store.triple_of(handle.rdf_t_id) == \
            Triple.from_text("<urn:c>", "<urn:q>", "<urn:d>")
        assert not store.is_triple("m", *_BASE)
        assert store.find_link("m", *_BASE) is None
        assert check_integrity(store) == []

    def test_savepoint_rollback(self, store):
        store.create_model("m")
        with store.database.transaction():
            store.insert_triple("m", "<urn:keep>", "<urn:q>", "<urn:k>")
            with pytest.raises(RuntimeError):
                with store.database.transaction():
                    store.insert_triple("m", *_BASE)
                    raise RuntimeError("abort")
            handle = store.insert_triple("m", "<urn:c>", "<urn:p2>",
                                         "<urn:d>")
        assert store.triple_of(handle.rdf_t_id) == \
            Triple.from_text("<urn:c>", "<urn:p2>", "<urn:d>")
        assert not store.is_triple("m", *_BASE)
        assert check_integrity(store) == []

    def test_rolled_back_model_is_forgotten(self, store):
        with pytest.raises(RuntimeError):
            with store.database.transaction():
                store.create_model("ghost")
                raise RuntimeError("abort")
        assert not store.model_exists("ghost")
        store.create_model("real")
        with pytest.raises(ModelNotFoundError):
            store.insert_triple("ghost", *_BASE)


class TestLiteralDBUri:
    """REIF_LINK is one rule for both write paths and the checker."""

    def test_both_write_paths_flag_a_literal_dburi(self, store):
        dburi = Literal("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]")
        triple = Triple(URI("s:a"), URI("p:x"), dburi)
        store.create_model("row")
        store.create_model("bulk")
        store.insert_triple_obj("row", triple)
        BulkLoader(store, "bulk").load([triple])
        ids = [store.values.find_id(term) for term in triple]
        flags = {model.model_name:
                 store.links.find(model.model_id, *ids).reif_link
                 for model in store.models}
        assert flags == {"row": True, "bulk": True}
        assert check_integrity(store) == []


class TestSecondStore:
    """Store B drops A's model, creates another under the freed
    MODEL_ID and inserts into it: A must not answer from its caches."""

    @pytest.fixture
    def stores(self, tmp_path):
        path = tmp_path / "shared.db"
        with RDFStore(path) as first, RDFStore(path) as second:
            first.create_model("m")
            first.insert_triple("m", *_BASE)
            assert first.is_triple("m", *_BASE)
            second.drop_model("m")
            second.create_model("n")
            second.insert_triple("n", "<urn:secret>", "<urn:p>",
                                 "<urn:x>")
            yield first

    @pytest.mark.parametrize("probe", ["is_triple", "find_link",
                                       "is_reified"])
    def test_probe_raises(self, stores, probe):
        with pytest.raises(ModelNotFoundError):
            getattr(stores, probe)("m", "<urn:secret>", "<urn:p>",
                                   "<urn:x>")

    def test_is_reified_id_raises(self, stores):
        with pytest.raises(ModelNotFoundError):
            stores.is_reified_id("m", 1)

    def test_model_exists(self, stores):
        assert not stores.model_exists("m")
        assert stores.model_exists("n")

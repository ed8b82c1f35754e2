"""Tests for the sharded storage engine (repro.core.sharded).

``RDFStore(path, shards=N)`` is the engine selector: N > 1 builds a
:class:`ShardedRDFStore` that partitions ``rdf_link$`` across N
sibling SQLite files, routes by (model, subject-hash), allocates
LINK_IDs from per-shard strides, and answers SDO_RDF_MATCH by
scatter-gather.  These tests pin the engine contract; the differential
parity suite lives in ``tests/property/test_shard_parity.py``.
"""

import pytest

from repro.core.engine import StorageEngine
from repro.core.sharded import ShardedRDFStore
from repro.core.store import RDFStore
from repro.db.shard import LINK_ID_STRIDE, shard_of_link_id
from repro.errors import (
    QueryError,
    StorageError,
    TripleNotFoundError,
)
from repro.inference.match import sdo_rdf_match
from repro.rdf.triple import Triple


@pytest.fixture
def base(tmp_path):
    return str(tmp_path / "uni.db")


@pytest.fixture
def sharded(base):
    store = RDFStore(base, shards=3)
    store.create_model("m")
    yield store
    store.close()


def _fill(store, count=12, model="m"):
    for i in range(count):
        store.insert_triple(model, f"<http://s{i}>", "<http://p>",
                            f"<http://o{i}>")


class TestEngineSelection:
    def test_shards_gt_one_builds_sharded_engine(self, base):
        with RDFStore(base, shards=2) as store:
            assert isinstance(store, ShardedRDFStore)
            assert isinstance(store, StorageEngine)
            assert store.engine_kind == "sharded"
            assert store.shard_count == 2

    def test_default_stays_single_file(self):
        with RDFStore() as store:
            assert type(store) is RDFStore
            assert store.engine_kind == "single"

    def test_memory_cannot_be_sharded(self):
        with pytest.raises(StorageError):
            RDFStore(shards=2)
        with pytest.raises(StorageError):
            RDFStore(":memory:", shards=2)

    def test_requires_wal_durability(self, base):
        with pytest.raises(StorageError, match="WAL"):
            RDFStore(base, shards=2, durability="ephemeral")

    def test_shard_files_are_created_base_is_not(self, base, tmp_path):
        with RDFStore(base, shards=3) as store:
            store.create_model("m")
        names = {path.name for path in tmp_path.iterdir()}
        assert {"uni.db.shard0", "uni.db.shard1",
                "uni.db.shard2"} <= names
        assert "uni.db" not in names


class TestRoutingAndStrides:
    def test_link_ids_come_from_the_owning_shards_stride(self, sharded):
        for i in range(12):
            handle = sharded.insert_triple(
                "m", f"<http://s{i}>", "<http://p>", f"<http://o{i}>")
            shard = sharded.router.shard_of("m", f"http://s{i}")
            assert shard_of_link_id(handle.rdf_t_id) == shard
            low, high = sharded.router.link_id_range(shard)
            assert low <= handle.rdf_t_id < high

    def test_same_subject_is_co_located(self, sharded):
        a = sharded.insert_triple("m", "<http://x>", "<http://p>",
                                  "<http://o1>")
        b = sharded.insert_triple("m", "<http://x>", "<http://q>",
                                  "<http://o2>")
        assert a.rdf_t_id // LINK_ID_STRIDE == \
            b.rdf_t_id // LINK_ID_STRIDE

    def test_subjects_spread_across_shards(self, sharded):
        _fill(sharded, 30)
        used = {sharded.router.shard_of("m", f"http://s{i}")
                for i in range(30)}
        assert len(used) > 1


class TestTripleOperations:
    def test_insert_find_remove_round_trip(self, sharded):
        sharded.insert_triple("m", "<http://a>", "<http://p>", '"v"')
        assert sharded.is_triple("m", "<http://a>", "<http://p>", '"v"')
        link = sharded.find_link("m", "<http://a>", "<http://p>", '"v"')
        assert link is not None
        assert sharded.remove_triple("m", "<http://a>", "<http://p>",
                                     '"v"')
        assert not sharded.is_triple("m", "<http://a>", "<http://p>",
                                     '"v"')

    def test_handle_member_functions_cross_thread(self, sharded):
        """SDO_RDF_TRIPLE_S handles resolve via the shard's read pool,
        not the writer thread's connection."""
        handle = sharded.insert_triple("m", "<http://a>", "<http://p>",
                                       '"42"')
        assert handle.get_subject() == "http://a"
        assert handle.get_property() == "http://p"
        assert handle.get_object() == "42"

    def test_insert_many_spans_shards(self, sharded):
        triples = [Triple.from_text(f"<http://s{i}>", "<http://p>",
                                    f"<http://o{i}>")
                   for i in range(20)]
        assert sharded.insert_many("m", triples) == 20
        assert sharded.count_triples("m") == 20
        # Replaying the batch inserts nothing new.
        assert sharded.insert_many("m", triples) == 0

    def test_iter_model_triples_sees_every_shard(self, sharded):
        _fill(sharded, 15)
        got = {triple.subject.lexical
               for triple in sharded.iter_model_triples("m")}
        assert got == {f"http://s{i}" for i in range(15)}

    def test_duplicate_insert_is_idempotent(self, sharded):
        first = sharded.insert_triple("m", "<http://a>", "<http://p>",
                                      "<http://b>")
        again = sharded.insert_triple("m", "<http://a>", "<http://p>",
                                      "<http://b>")
        assert first.rdf_t_id == again.rdf_t_id


class TestBulkLoad:
    """Staged bulk loads fan out one BulkLoader per touched shard and
    allocate LINK_IDs from each shard's stride."""

    def _triples(self, count, base=0):
        return [Triple.from_text(f"<http://s{base + i}>", "<http://p>",
                                 f'"value {base + i}"')
                for i in range(count)]

    def test_bulk_load_spans_shards(self, sharded):
        report = sharded.bulk_load("m", self._triples(40))
        assert report.staged == 40
        assert report.new_links == 40
        assert report.duplicate_triples == 0
        assert sharded.count_triples("m") == 40

    def test_bulk_loaded_link_ids_stay_in_stride(self, sharded):
        sharded.bulk_load("m", self._triples(30))
        for i in range(30):
            link = sharded.find_link("m", f"<http://s{i}>",
                                     "<http://p>", f'"value {i}"')
            assert shard_of_link_id(link.link_id) == \
                sharded.router.shard_of("m", f"http://s{i}")

    def test_bulk_load_replay_dedups(self, sharded):
        triples = self._triples(25)
        sharded.bulk_load("m", triples)
        report = sharded.bulk_load("m", triples)
        assert report.new_links == 0
        assert report.duplicate_triples == 25
        assert sharded.count_triples("m") == 25

    def test_bulk_load_mixes_with_row_inserts(self, sharded):
        """A row-at-a-time insert after a bulk load continues the same
        shard-local LINK_ID sequence (no collisions, same stride)."""
        sharded.bulk_load("m", self._triples(20))
        handle = sharded.insert_triple("m", "<http://s3>",
                                       "<http://q>", '"extra"')
        assert shard_of_link_id(handle.rdf_t_id) == \
            sharded.router.shard_of("m", "http://s3")
        assert sharded.count_triples("m") == 21

    def test_bulk_loaded_triples_match_and_reify(self, sharded):
        sharded.bulk_load("m", self._triples(12))
        rows = sdo_rdf_match(sharded, "(?s <http://p> ?o)", ["m"])
        assert len(rows) == 12
        link = sharded.find_link("m", "<http://s5>", "<http://p>",
                                 '"value 5"')
        reif = sharded.reify_triple("m", link.link_id)
        assert f"LINK_ID={link.link_id}" in reif.get_subject()
        assert sharded.is_reified_id("m", link.link_id)


class TestModels:
    def test_models_are_addressed_by_name_on_every_shard(self, sharded):
        sharded.create_model("other")
        assert sharded.model_exists("other")
        sharded.insert_triple("other", "<http://a>", "<http://p>",
                              "<http://b>")
        assert sharded.count_triples("other") == 1
        sharded.drop_model("other")
        assert not sharded.model_exists("other")


class TestReification:
    def test_reify_and_resolve_across_shards(self, sharded):
        handle = sharded.insert_triple("m", "<http://a>", "<http://p>",
                                       "<http://b>")
        assert not sharded.is_reified_id("m", handle.rdf_t_id)
        reif = sharded.reify_triple("m", handle.rdf_t_id)
        assert sharded.is_reified_id("m", handle.rdf_t_id)
        assert sharded.is_reified("m", "<http://a>", "<http://p>",
                                  "<http://b>")
        assert f"LINK_ID={handle.rdf_t_id}" in reif.get_subject()
        # The DBUri-named LINK_ID resolves from any entry point.
        assert sharded.triple_of(handle.rdf_t_id).subject.lexical == \
            "http://a"

    def test_assert_about(self, sharded):
        handle = sharded.insert_triple("m", "<http://a>", "<http://p>",
                                       "<http://b>")
        sharded.assert_about("m", "<http://carl>", "<http://said>",
                             handle.rdf_t_id)
        rows = sdo_rdf_match(
            sharded, "(<http://carl> <http://said> ?what)", ["m"])
        assert len(rows) == 1

    def test_unknown_link_id_raises(self, sharded):
        with pytest.raises(TripleNotFoundError):
            sharded.get_triple_s(99 * LINK_ID_STRIDE + 5)
        with pytest.raises(TripleNotFoundError):
            sharded.reify_triple("m", 7)


class TestScatterMatch:
    def test_unanchored_scan_gathers_all_shards(self, sharded):
        _fill(sharded, 10)
        rows = sdo_rdf_match(sharded, "(?s <http://p> ?o)", ["m"])
        assert len(rows) == 10

    def test_anchored_query_uses_one_shard(self, sharded):
        _fill(sharded, 10)
        rows = sdo_rdf_match(sharded, "(<http://s3> <http://p> ?o)",
                             ["m"])
        assert [row["o"] for row in rows] == ["http://o3"]

    def test_cross_shard_join(self, sharded):
        sharded.insert_triple("m", "<http://a>", "<http://p>",
                              "<http://b>")
        sharded.insert_triple("m", "<http://b>", "<http://p>",
                              "<http://c>")
        rows = sdo_rdf_match(
            sharded, "(?x <http://p> ?y) (?y <http://p> ?z)", ["m"])
        assert len(rows) == 1
        assert rows[0]["x"] == "http://a"
        assert rows[0]["z"] == "http://c"

    def test_order_by_and_limit_reapplied_after_merge(self, sharded):
        _fill(sharded, 9)
        rows = sdo_rdf_match(sharded, "(?s <http://p> ?o)", ["m"],
                             order_by="s", limit=4)
        assert [row["s"] for row in rows] == \
            [f"http://s{i}" for i in range(4)]

    def test_rulebases_are_rejected(self, sharded):
        with pytest.raises(QueryError, match="rulebases"):
            sdo_rdf_match(sharded, "(?s ?p ?o)", ["m"],
                          rulebases=["rdfs"])

    def test_explain_works_anchored_fails_scattered(self, sharded):
        _fill(sharded, 5)
        explanation = sdo_rdf_match(
            sharded, "(<http://s1> <http://p> ?o)", ["m"],
            explain=True)
        assert explanation.plan.sql is not None
        with pytest.raises(QueryError, match="explain"):
            sdo_rdf_match(sharded, "(?s <http://p> ?o)", ["m"],
                          explain=True)


class TestLifecycle:
    def test_reopen_preserves_data_and_routing(self, base):
        with RDFStore(base, shards=3) as store:
            store.create_model("m")
            _fill(store, 8)
        with RDFStore(base, shards=3) as store:
            assert store.count_triples("m") == 8
            rows = sdo_rdf_match(store, "(?s <http://p> ?o)", ["m"])
            assert len(rows) == 8

    def test_wrong_shard_count_is_refused(self, base):
        with RDFStore(base, shards=3) as store:
            store.create_model("m")
        # SchemaError from ensure_shard_meta, surfaced through the
        # writer-queue start wrapper as a StorageError subclass-family
        # failure — never silent mis-routing.
        with pytest.raises(StorageError):
            RDFStore(base, shards=4)

    def test_close_is_idempotent(self, base):
        store = RDFStore(base, shards=2)
        store.close()
        store.close()
        assert store.closed

"""Tests for the bulk loader (repro.core.bulkload)."""

import io

import pytest

from repro.core import bulkload
from repro.core.bulkload import (
    STAGE_TABLE,
    STAGE_VALUE_TABLE,
    BulkLoader,
    bulk_load_ntriples,
)
from repro.core.integrity import check_integrity
from repro.core.links import LinkType
from repro.core.schema import NODE_TABLE
from repro.core.store import RDFStore
from repro.db.dburi import DBUri
from repro.rdf.namespaces import XSD
from repro.rdf.ntriples import StatementTokens, serialize_ntriples
from repro.rdf.terms import BlankNode, Literal, URI
from repro.rdf.triple import Triple
from repro.workloads.uniprot import UniProtGenerator


@pytest.fixture
def model(store):
    store.create_model("m")
    return "m"


def t(s, p, o):
    return Triple.from_text(s, p, o)


def _stored(store):
    """Model m's triples, its link rows by text, and the table counts."""
    db = store.database
    links = {tuple(row) for row in db.query_all(
        "SELECT sv.value_name, pv.value_name, ov.value_name,"
        " cv.value_name, cv.literal_type, l.link_type,"
        " l.reif_link, l.context "
        'FROM "rdf_link$" l '
        'JOIN "rdf_value$" sv ON sv.value_id = l.start_node_id '
        'JOIN "rdf_value$" pv ON pv.value_id = l.p_value_id '
        'JOIN "rdf_value$" ov ON ov.value_id = l.end_node_id '
        'JOIN "rdf_value$" cv '
        "ON cv.value_id = l.canon_end_node_id")}
    counts = {table: db.row_count(table) for table in (
        "rdf_link$", "rdf_value$", "rdf_node$", "rdf_blank_node$")}
    return set(store.iter_model_triples("m")), links, counts


def _overflow_triples():
    """Terms that repeat across many clears of a five-entry key map:
    shared subjects, predicates, a non-canonical typed literal, a blank
    node, a DBUri subject and an exact duplicate triple."""
    triples = list(UniProtGenerator().triples(400))
    triples += [
        Triple(URI("s:a"), URI("p:x"),
               Literal("024", datatype=XSD.int)),
        Triple(BlankNode("b1"), URI("p:x"),
               Literal("024", datatype=XSD.int)),
        Triple(URI("s:a"), URI("p:y"), BlankNode("b1")),
        Triple(URI("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]"),
               URI("p:x"), URI("s:a")),
    ] * 3
    return triples + triples[:50]


class TestBulkLoad:
    def test_basic_load(self, store, model):
        report = BulkLoader(store, model).load([
            t("s:a", "p:x", "o:a"),
            t("s:b", "p:x", "o:b"),
        ])
        assert report.staged == 2
        assert report.new_links == 2
        assert report.duplicate_triples == 0
        assert store.links.count() == 2

    def test_equivalent_to_row_at_a_time(self, store, model):
        triples = list(UniProtGenerator().triples(1_500))
        BulkLoader(store, model).load(triples)
        bulk_result = set(store.iter_model_triples(model))

        store.create_model("reference")
        for triple in triples:
            store.insert_triple_obj("reference", triple)
        reference = set(store.iter_model_triples("reference"))
        assert bulk_result == reference

    def test_values_deduplicated(self, store, model):
        report = BulkLoader(store, model).load([
            t("s:shared", "p:x", "o:a"),
            t("s:shared", "p:x", "o:b"),
        ])
        # s:shared, p:x, o:a, o:b -> 4 distinct values.
        assert report.new_values == 4

    def test_duplicates_within_batch_collapse(self, store, model):
        report = BulkLoader(store, model).load([
            t("s:a", "p:x", "o:a"),
            t("s:a", "p:x", "o:a"),
        ])
        assert report.staged == 2
        assert report.new_links == 1
        assert report.duplicate_triples == 1

    def test_duplicates_against_existing_rows(self, store, model):
        store.insert_triple(model, "s:a", "p:x", "o:a")
        report = BulkLoader(store, model).load([t("s:a", "p:x", "o:a"),
                                                t("s:b", "p:x", "o:b")])
        assert report.new_links == 1
        assert report.duplicate_triples == 1
        assert store.links.count() == 2

    def test_reuses_existing_values(self, store, model):
        store.insert_triple(model, "s:a", "p:x", "o:a")
        report = BulkLoader(store, model).load([t("s:a", "p:x", "o:b")])
        # Only o:b is new.
        assert report.new_values == 1

    def test_nodes_registered(self, store, model):
        BulkLoader(store, model).load([t("s:a", "p:x", "o:a")])
        assert store.database.row_count(NODE_TABLE) == 2

    def test_blank_nodes_tracked(self, store, model):
        BulkLoader(store, model).load([
            Triple(BlankNode("b1"), URI("p:x"), Literal("v"))])
        row = store.database.query_one(
            'SELECT orig_label FROM "rdf_blank_node$"')
        assert row["orig_label"] == "b1"

    def test_canonical_ids_set(self, store, model):
        BulkLoader(store, model).load([
            Triple(URI("s:a"), URI("p:x"),
                   Literal("024", datatype=XSD.int))])
        link = next(iter(store.links.iter_model(
            store.models.get(model).model_id)))
        canonical = store.values.get_term(link.canon_end_node_id)
        assert canonical == Literal("24", datatype=XSD.int)

    def test_link_type_classified(self, store, model):
        BulkLoader(store, model).load([t("s:a", "rdf:type", "c:X")])
        link = next(iter(store.links.iter_model(
            store.models.get(model).model_id)))
        assert link.link_type is LinkType.RDF_TYPE

    def test_cost_starts_at_zero(self, store, model):
        BulkLoader(store, model).load([t("s:a", "p:x", "o:a")])
        link = store.find_link(model, "s:a", "p:x", "o:a")
        assert link.cost == 0

    def test_stage_table_emptied(self, store, model):
        BulkLoader(store, model).load([t("s:a", "p:x", "o:a")])
        assert store.database.row_count(STAGE_TABLE) == 0

    def test_batching(self, store, model):
        triples = [t(f"s:{i}", "p:x", f"o:{i}") for i in range(25)]
        report = BulkLoader(store, model, batch_size=7).load(triples)
        assert report.new_links == 25

    def test_long_literals(self, store, model):
        text = "z" * 4500
        BulkLoader(store, model).load([
            Triple(URI("s:a"), URI("p:x"), Literal(text))])
        triple = next(store.iter_model_triples(model))
        assert triple.object == Literal(text)

    def test_reif_flags_consistent_with_integrity(self, store, model):
        # Bulk-loaded DBUri statements pass the strict integrity check,
        # including malformed /ORADB/ strings that only *look* like
        # DBUris.
        from repro.core.integrity import check_integrity
        from repro.db.dburi import DBUri

        from repro.rdf.namespaces import RDF

        base = store.insert_triple(model, "s:base", "p:x", "o:base")
        dburi = DBUri.for_link(base.rdf_t_id).text
        BulkLoader(store, model).load([
            Triple(URI(dburi), RDF.type, RDF.Statement),
            Triple(URI("/ORADB/not-actually-a-dburi"), URI("p:x"),
                   URI("o:x")),
        ])
        assert check_integrity(store) == []
        link = store.find_link(model, dburi, RDF.type.value,
                               RDF.Statement.value)
        assert store.links.get(link.link_id).reif_link
        # The lookalike got 'N'.
        fake = store.find_link(model, "/ORADB/not-actually-a-dburi",
                               "p:x", "o:x")
        assert not store.links.get(fake.link_id).reif_link

    def test_literal_dburi_flagged_exactly(self, store, model):
        # REIF_LINK follows the DBUri grammar on the stored text, the
        # rule check_integrity enforces, whatever the term's kind.
        base = store.insert_triple(model, "s:base", "p:x", "o:base")
        dburi = DBUri.for_link(base.rdf_t_id).text
        BulkLoader(store, model).load([
            Triple(URI("s:a"), URI("p:cites"), Literal(dburi)),
            Triple(URI("s:b"), URI("p:cites"),
                   Literal("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=x]")),
        ])
        assert check_integrity(store) == []
        flags = dict(store.database.query_all(
            'SELECT v.value_name, l.reif_link FROM "rdf_link$" l '
            'JOIN "rdf_value$" v ON v.value_id = l.start_node_id'))
        assert flags == {"s:base": "N", "s:a": "Y", "s:b": "N"}

    def test_rollback_on_parse_error(self, store, model):
        document = "<urn:s> <urn:p> <urn:o> .\nbroken line\n"
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            BulkLoader(store, model).load_stream(io.StringIO(document))
        assert store.links.count() == 0


class TestStagingSpace:
    """Staging lives in the temp schema: the main file never sees it."""

    def test_fresh_durable_load_leaves_no_free_pages(self, tmp_path):
        with RDFStore(tmp_path / "fresh.db",
                      durability="durable") as store:
            store.create_model("m")
            report = BulkLoader(store, "m").load(
                UniProtGenerator().triples(3_000))
            assert report.new_links == 3_000
            db = store.database
            assert db.query_value("PRAGMA freelist_count") == 0
            assert db.query_all(
                "SELECT name FROM sqlite_master WHERE name IN (?, ?)",
                (STAGE_TABLE, STAGE_VALUE_TABLE)) == []

    def test_key_map_overflow_stores_what_row_at_a_time_stores(
            self, monkeypatch):
        monkeypatch.setattr(bulkload, "KEY_MAP_BOUND", 5)
        triples = _overflow_triples()

        with RDFStore() as bulk, RDFStore() as reference:
            for target in (bulk, reference):
                target.create_model("m")
            report = BulkLoader(bulk, "m", batch_size=7).load(triples)
            for triple in triples:
                reference.insert_triple_obj("m", triple)
            assert report.new_links == reference.links.count()
            assert _stored(bulk) == _stored(reference)
            assert check_integrity(bulk) == []


class TestStagingCleanup:
    """A failed load must not leak rdf_stage$ rows into the next one."""

    @staticmethod
    def _failing_triples(count):
        generator = UniProtGenerator()
        for index, triple in enumerate(generator.triples(count)):
            if index == count - 1:
                raise RuntimeError("source failed mid-stream")
            yield triple

    def test_stage_empty_after_midstream_failure(self, store, model):
        loader = BulkLoader(store, model, batch_size=10)
        with pytest.raises(RuntimeError):
            loader.load(self._failing_triples(55))
        assert store.database.row_count(STAGE_TABLE) == 0
        assert store.links.count() == 0

    def test_stage_empty_when_failure_caught_in_outer_transaction(
            self, store, model):
        # The historical leak: load() nested inside a caller's
        # transaction, the failure caught outside the inner scope —
        # SAVEPOINT rollback plus explicit cleanup must still leave
        # the staging table empty and the outer writes intact.
        db = store.database
        db.execute("CREATE TABLE outer_work (a INTEGER)")
        loader = BulkLoader(store, model, batch_size=10)
        with db.transaction():
            db.execute("INSERT INTO outer_work VALUES (1)")
            try:
                loader.load(self._failing_triples(55))
            except RuntimeError:
                pass
            assert db.row_count(STAGE_TABLE) == 0
        assert db.row_count("outer_work") == 1
        assert store.links.count() == 0

    def test_next_load_unaffected_by_previous_failure(self, store,
                                                      model):
        loader = BulkLoader(store, model, batch_size=10)
        with pytest.raises(RuntimeError):
            loader.load(self._failing_triples(55))
        report = loader.load(UniProtGenerator().triples(40))
        assert report.staged == 40
        # Only this load's rows were merged — nothing left over from
        # the failed attempt inflated the counts.
        assert report.new_links == store.links.count()
        from repro.core.integrity import check_integrity

        assert check_integrity(store) == []

    def test_disk_fault_during_merge_cleans_stage(self, store, model):
        from repro.db.faults import FaultInjector

        injector = FaultInjector()
        store.database.set_fault_injector(injector)
        injector.inject("disk_io",
                        match='INSERT OR IGNORE INTO "rdf_link$"')
        loader = BulkLoader(store, model, batch_size=10)
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            loader.load(UniProtGenerator().triples(30))
        store.database.set_fault_injector(None)
        assert store.database.row_count(STAGE_TABLE) == 0
        assert store.links.count() == 0


class TestFileLoading:
    def test_load_file(self, store, model, tmp_path):
        path = tmp_path / "data.nt"
        triples = [Triple(URI(f"urn:s:{i}"), URI("urn:p"),
                          Literal(f"value {i}")) for i in range(10)]
        path.write_text(serialize_ntriples(triples), encoding="utf-8")
        report = bulk_load_ntriples(store, model, path)
        assert report.new_links == 10
        assert set(store.iter_model_triples(model)) == set(triples)

    def test_member_functions_after_bulk_load(self, store, model,
                                              tmp_path):
        path = tmp_path / "data.nt"
        path.write_text("<urn:s> <urn:p> <urn:o> .\n", encoding="utf-8")
        bulk_load_ntriples(store, model, path)
        link = store.find_link(model, "urn:s", "urn:p", "urn:o")
        obj = store.get_triple_s(link.link_id)
        assert obj.get_subject() == "urn:s"


class TestTokenPath:
    """load_stream keys raw N-Triples tokens; load keys term objects."""

    def test_key_map_overflow_stores_what_row_at_a_time_stores(
            self, monkeypatch):
        # The token twin of TestStagingSpace's test: the same triples,
        # spelled as N-Triples, go through the five-entry key map.
        monkeypatch.setattr(bulkload, "KEY_MAP_BOUND", 5)
        triples = _overflow_triples()
        with RDFStore() as bulk, RDFStore() as reference:
            for target in (bulk, reference):
                target.create_model("m")
            report = BulkLoader(bulk, "m", batch_size=7).load_stream(
                io.StringIO(serialize_ntriples(triples)))
            for triple in triples:
                reference.insert_triple_obj("m", triple)
            assert report.staged == len(triples)
            assert report.new_links == reference.links.count()
            assert _stored(bulk) == _stored(reference)
            assert check_integrity(bulk) == []

    def test_one_term_read_per_distinct_token(self, store, model,
                                              monkeypatch):
        read = []
        original = StatementTokens.term
        monkeypatch.setattr(StatementTokens, "term",
                            lambda self, token: read.append(token)
                            or original(self, token))
        document = "".join(
            f'<urn:s{i % 3}> <urn:p{i % 2}> "v{i % 4}" .\n'
            for i in range(60))
        report = BulkLoader(store, model).load_stream(
            io.StringIO(document))
        assert report.staged == 60
        # Each distinct token once, and each predicate once more for
        # its link type.
        assert sorted(read) == sorted(
            [f"<urn:s{i}>" for i in range(3)]
            + [f"<urn:p{i}>" for i in range(2)] * 2
            + [f'"v{i}"' for i in range(4)])

    @pytest.mark.parametrize("bad", [
        "<urn:s> <urn:p> <urn:o>",
        "<urn:s> <urn:p> <urn:o> . garbage",
        "<urn:s <urn:p> <urn:o> .",
        '<urn:s> <urn:p> "open .',
        '"lit" <urn:p> <urn:o> .',
        "<urn:s> _:b <urn:o> .",
        "<urn:s> <urn:p> .",
        "bad line .",
        "broken line",
        '<urn:s> <urn:p> "x"@ .',
        '<urn:s> <urn:p> "bad \\q escape" .',
        "<not a uri> <urn:p> <urn:o> .",
    ])
    def test_malformed_line_raises_with_its_line_number(
            self, store, model, bad):
        document = f"# header\n<urn:s> <urn:p> <urn:o> .\n{bad}\n"
        from repro.errors import ParseError
        from repro.rdf.ntriples import parse_ntriples

        with pytest.raises(ParseError) as expected:
            list(parse_ntriples(document))
        with pytest.raises(ParseError) as raised:
            BulkLoader(store, model).load_stream(io.StringIO(document))
        assert raised.value.line == expected.value.line == 3
        assert str(raised.value) == str(expected.value)
        db = store.database
        assert [db.row_count(table) for table in (
            "rdf_link$", STAGE_TABLE, STAGE_VALUE_TABLE)] == [0, 0, 0]

    def test_literal_ending_in_newline_is_not_a_dburi(self, store, model):
        # A DBUri's text followed by a newline is a literal like any
        # other: REIF_LINK 'N' on every write path.
        text = DBUri.for_link(1).text + "\n"
        line = f'<urn:s> <urn:p:tokens> "{text[:-1]}\\n" .\n'
        BulkLoader(store, model).load_stream(io.StringIO(line))
        BulkLoader(store, model).load([Triple(
            URI("urn:s"), URI("urn:p:terms"), Literal(text))])
        store.insert_triple_obj(model, Triple(
            URI("urn:s"), URI("urn:p:rows"), Literal(text)))
        rows = store.database.query_all(
            'SELECT v.value_name, l.reif_link FROM "rdf_link$" l '
            'JOIN "rdf_value$" v ON v.value_id = l.end_node_id')
        assert [tuple(row) for row in rows] == [(text, "N")] * 3
        assert check_integrity(store) == []

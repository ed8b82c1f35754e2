"""Tests for DBUri emulation (repro.db.dburi)."""

import sqlite3

import pytest

from repro.db.dburi import DBUri, DBUriType, is_dburi, link_dburi_sql
from repro.errors import DBUriError


class TestParse:
    def test_paper_example(self):
        uri = DBUri.parse("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=2051]")
        assert uri.schema == "MDSYS"
        assert uri.table == "RDF_LINK$"
        assert uri.column == "LINK_ID"
        assert uri.value == 2051

    def test_text_roundtrip(self):
        text = "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=7]"
        assert DBUri.parse(text).text == text

    @pytest.mark.parametrize("bad", [
        "",
        "http://not-a-dburi",
        "/ORADB/MDSYS/RDF_LINK$",
        "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=abc]",
        "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1] trailing",
        "/ORADB//RDF_LINK$/ROW[LINK_ID=1]",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(DBUriError):
            DBUri.parse(bad)

    def test_is_dburi(self):
        assert is_dburi("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]")
        assert not is_dburi("urn:lsid:uniprot.org:uniprot:P93259")
        assert not is_dburi("gov:files")

    def test_trailing_newline_rejected(self):
        # The whole text must match: '$' alone also matches before a
        # final newline.
        text = "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]\n"
        assert not is_dburi(text)
        with pytest.raises(DBUriError):
            DBUri.parse(text)


class TestForLink:
    def test_generates_paper_form(self):
        assert DBUri.for_link(2051).text == \
            "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=2051]"

    def test_negative_rejected(self):
        with pytest.raises(DBUriError):
            DBUri.for_link(-1)

    def test_link_id_accessor(self):
        assert DBUri.for_link(9).link_id == 9

    def test_is_link_uri(self):
        assert DBUri.for_link(1).is_link_uri
        other = DBUri.parse("/ORADB/MDSYS/RDF_VALUE$/ROW[VALUE_ID=1]")
        assert not other.is_link_uri
        with pytest.raises(DBUriError):
            other.link_id

    @pytest.mark.parametrize("link_id", [0, 1, 2051, 2**62])
    def test_sql_expression_spells_the_same_text(self, link_id):
        connection = sqlite3.connect(":memory:")
        try:
            text = connection.execute(
                f"SELECT {link_dburi_sql('?')}", (link_id,)).fetchone()[0]
        finally:
            connection.close()
        assert text == DBUri.for_link(link_id).text


class TestDBUriType:
    def test_geturl(self):
        dburi = DBUriType("/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=3]")
        assert dburi.geturl() == "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=3]"

    def test_fetch_row_resolves_link(self, store, cia_table):
        obj = cia_table.insert(1, "cia", "gov:files",
                               "gov:terrorSuspect", "id:JohnDoe")
        dburi = DBUriType(DBUri.for_link(obj.rdf_t_id))
        row = dburi.fetch_row(store.database)
        assert row["link_id"] == obj.rdf_t_id
        assert row["start_node_id"] == obj.rdf_s_id

    def test_fetch_missing_row_raises(self, store):
        dburi = DBUriType(DBUri.for_link(99_999))
        with pytest.raises(DBUriError):
            dburi.fetch_row(store.database)

    def test_exists(self, store, cia_table):
        obj = cia_table.insert(1, "cia", "gov:files",
                               "gov:terrorSuspect", "id:JohnDoe")
        assert DBUriType(DBUri.for_link(obj.rdf_t_id)).exists(
            store.database)
        assert not DBUriType(DBUri.for_link(12_345)).exists(store.database)

    def test_unknown_table_rejected(self, store):
        dburi = DBUriType("/ORADB/MDSYS/SOME_TABLE/ROW[X=1]")
        with pytest.raises(DBUriError):
            dburi.fetch_row(store.database)

"""Tests for the central schema DDL (repro.core.schema)."""

from repro.core.schema import (
    BLANK_NODE_TABLE,
    LINK_TABLE,
    MODEL_TABLE,
    NODE_TABLE,
    RDF_NETWORK_NAME,
    VALUE_TABLE,
    central_schema_exists,
    create_central_schema,
)
from repro.ndm.catalog import NetworkCatalog


class TestSchemaVersioning:
    def test_version_recorded(self, database):
        from repro.core.schema import SCHEMA_VERSION, VERSION_TABLE

        create_central_schema(database)
        stored = database.query_value(
            f'SELECT MAX(version) FROM "{VERSION_TABLE}"')
        assert stored == SCHEMA_VERSION

    def test_future_version_refused(self, database):
        import pytest

        from repro.core.schema import SCHEMA_VERSION, VERSION_TABLE
        from repro.errors import SchemaError

        create_central_schema(database)
        database.execute(
            f'INSERT INTO "{VERSION_TABLE}" VALUES (?)',
            (SCHEMA_VERSION + 1,))
        with pytest.raises(SchemaError):
            create_central_schema(database)

    def test_same_version_reopens(self, database):
        create_central_schema(database)
        create_central_schema(database)  # no error


class TestSchemaCreation:
    def test_all_tables_created(self, database):
        create_central_schema(database)
        for table in (MODEL_TABLE, VALUE_TABLE, NODE_TABLE, LINK_TABLE,
                      BLANK_NODE_TABLE):
            assert database.table_exists(table)

    def test_exists_check(self, database):
        assert not central_schema_exists(database)
        create_central_schema(database)
        assert central_schema_exists(database)

    def test_idempotent(self, database):
        create_central_schema(database)
        create_central_schema(database)
        assert central_schema_exists(database)

    def test_network_registered(self, database):
        create_central_schema(database)
        metadata = NetworkCatalog(database).get(RDF_NETWORK_NAME)
        assert metadata.node_table == NODE_TABLE
        assert metadata.link_table == LINK_TABLE
        assert metadata.directed
        assert metadata.partition_column == "model_id"

    def test_link_table_paper_columns(self, database):
        create_central_schema(database)
        columns = database.table_columns(LINK_TABLE)
        for expected in ("link_id", "start_node_id", "p_value_id",
                         "end_node_id", "canon_end_node_id", "link_type",
                         "cost", "context", "reif_link", "model_id"):
            assert expected in columns

    def test_value_table_paper_columns(self, database):
        create_central_schema(database)
        columns = database.table_columns(VALUE_TABLE)
        for expected in ("value_id", "value_name", "value_type",
                         "literal_type", "language_type", "long_value"):
            assert expected in columns

    def test_context_check_constraint(self, database):
        import pytest

        from repro.errors import StorageError

        create_central_schema(database)
        database.execute(
            f'INSERT INTO "{MODEL_TABLE}" '
            "(model_name, table_name, column_name) VALUES ('m', 't', 'c')")
        database.execute(
            f'INSERT INTO "{VALUE_TABLE}" (value_name, value_type) '
            "VALUES ('urn:x', 'UR')")
        database.execute(
            f'INSERT INTO "{NODE_TABLE}" (node_id, node_type) '
            "VALUES (1, 'UR')")
        with pytest.raises(StorageError):
            database.execute(
                f'INSERT INTO "{LINK_TABLE}" '
                "(start_node_id, p_value_id, end_node_id, "
                "canon_end_node_id, context, model_id) "
                "VALUES (1, 1, 1, 1, 'X', 1)")

    def test_link_unique_per_model(self, database):
        import pytest

        from repro.errors import StorageError

        create_central_schema(database)
        database.execute(
            f'INSERT INTO "{MODEL_TABLE}" '
            "(model_name, table_name, column_name) VALUES ('m', 't', 'c')")
        database.execute(
            f'INSERT INTO "{VALUE_TABLE}" (value_name, value_type) '
            "VALUES ('urn:x', 'UR')")
        database.execute(
            f'INSERT INTO "{NODE_TABLE}" (node_id, node_type) '
            "VALUES (1, 'UR')")
        insert = (
            f'INSERT INTO "{LINK_TABLE}" '
            "(start_node_id, p_value_id, end_node_id, canon_end_node_id,"
            " model_id) VALUES (1, 1, 1, 1, 1)")
        database.execute(insert)
        with pytest.raises(StorageError):
            database.execute(insert)


#: The access-path indexes of the earlier layout, verbatim.
_OLD_ACCESS_INDEXES = (
    f'CREATE INDEX rdf_link_spo ON "{LINK_TABLE}" '
    "(model_id, start_node_id)",
    f'CREATE INDEX rdf_link_pos ON "{LINK_TABLE}" '
    "(model_id, p_value_id, canon_end_node_id)",
    f'CREATE INDEX rdf_link_osp ON "{LINK_TABLE}" '
    "(model_id, canon_end_node_id)",
)


def _link_indexes(database):
    """``{index name: [column, ...]}`` of every ``rdf_link$`` index."""
    names = [row["name"] for row in database.query_all(
        f"SELECT name FROM pragma_index_list('{LINK_TABLE}')")]
    return {name: [row["name"] for row in database.query_all(
        f"SELECT name FROM pragma_index_info('{name}') ORDER BY seqno")]
        for name in names}


class TestAccessIndexUpgrade:
    """A file written under the earlier index layout moves to the
    current one on its first writable open, and answers the same rows
    before, after, and read-only without the upgrade."""

    CURRENT = {
        "rdf_link_uniq": ["model_id", "start_node_id", "p_value_id",
                          "end_node_id"],
        "rdf_link_pos": ["model_id", "p_value_id", "end_node_id"],
        "rdf_link_osp": ["model_id", "end_node_id"],
    }

    @staticmethod
    def _old_file(path):
        """A populated store on the earlier layout; returns the probe
        queries its rows are compared on."""
        from repro.core.store import RDFStore
        from repro.db.dburi import DBUri

        with RDFStore(str(path)) as store:
            store.create_model("m")
            for i in range(40):
                store.insert_triple("m", f"<urn:s{i % 7}>",
                                    f"<urn:p{i % 3}>", f"<urn:o{i}>")
            store.insert_triple("m", "<urn:a>", "<urn:rank>",
                                '"01"^^xsd:integer')
            store.insert_triple("m", "<urn:b>", "<urn:rank>",
                                '"1"^^xsd:integer')
            link = store.find_link("m", "<urn:s1>", "<urn:p1>", "<urn:o1>")
            store.assert_about("m", "<urn:curator>", "<urn:curatedBy>",
                               link.link_id)
            database = store.database
            database.execute("DROP INDEX rdf_link_pos")
            database.execute("DROP INDEX rdf_link_osp")
            for statement in _OLD_ACCESS_INDEXES:
                database.execute(statement)
            database.analyze()
            dburi = DBUri.for_link(link.link_id).text
        return ["(?s ?p ?o)", "(?s <urn:p2> <urn:o5>)", "(?s ?p <urn:o8>)",
                '(?s <urn:rank> "01"^^xsd:integer)',
                '(?s ?p "1"^^xsd:integer)',
                f"(?who <urn:curatedBy> <{dburi}>)",
                "(?s <urn:p1> <urn:o1>) (?s ?p ?o)"]

    @staticmethod
    def _rows(store, queries):
        from repro.inference.match import sdo_rdf_match

        return [sorted(tuple(sorted(row.as_dict().items()))
                       for row in sdo_rdf_match(store, query, ["m"]))
                for query in queries]

    def test_writable_open_upgrades(self, tmp_path):
        import sqlite3

        from repro.core.integrity import check_integrity
        from repro.core.store import RDFStore
        from repro.db.connection import Database

        path = tmp_path / "old.db"
        queries = self._old_file(path)
        copy = tmp_path / "copy.db"
        with sqlite3.connect(path) as source, \
                sqlite3.connect(copy) as target:
            source.backup(target)

        with RDFStore(Database(path, read_only=True)) as store:
            assert _link_indexes(store.database)["rdf_link_osp"] == \
                ["model_id", "canon_end_node_id"]
            before = self._rows(store, queries)
        assert all(before)

        with RDFStore(str(path)) as store:
            assert _link_indexes(store.database) == self.CURRENT
            assert self._rows(store, queries) == before
            assert check_integrity(store) == []
        with RDFStore(str(path)) as store:  # a second open is a no-op
            assert _link_indexes(store.database) == self.CURRENT

        with RDFStore(Database(copy, read_only=True)) as store:
            assert "rdf_link_spo" in _link_indexes(store.database)
            assert self._rows(store, queries) == before

    def test_fresh_store_has_current_layout(self, database):
        create_central_schema(database)
        assert _link_indexes(database) == self.CURRENT

"""Systematic corruption injection: every check_integrity sweep must
fire on a deliberately broken store.

Complements tests/core/test_integrity.py (which covers the common
cases) by walking the complete sweep list — every link-reference
column, both REIF_LINK flag directions, orphan nodes, dangling
reifications, component kinds, and negative COST — and by driving the
``repro doctor`` CLI against each corruption.
"""

import io

import pytest

from repro.cli import main
from repro.core.integrity import check_integrity
from repro.core.store import RDFStore


@pytest.fixture
def seeded(store, cia_table):
    """A healthy store with a base triple, a reification, an
    assertion, and a literal-object triple; FK enforcement off so
    corruption can be injected."""
    base = cia_table.insert(1, "cia", "gov:files", "gov:terrorSuspect",
                            "id:JohnDoe")
    cia_table.insert(2, "cia", base.rdf_t_id)
    cia_table.insert(3, "cia", "gov:MI5", "gov:source", base.rdf_t_id)
    cia_table.insert(4, "cia", "id:JohnDoe", "gov:age", '"42"')
    assert check_integrity(store) == []
    store.database.execute("PRAGMA foreign_keys = OFF")
    return store, base


def fired_checks(store):
    return {violation.check for violation in check_integrity(store)}


#: name -> (corrupting SQL template, expected check). The templates
#: reference {link_id} of the base triple.
CORRUPTIONS = {
    "dangling-start-node": (
        'UPDATE "rdf_link$" SET start_node_id = 987654 '
        "WHERE link_id = {link_id}", "link-references"),
    "dangling-predicate": (
        'UPDATE "rdf_link$" SET p_value_id = 987654 '
        "WHERE link_id = {link_id}", "link-references"),
    "dangling-end-node": (
        'UPDATE "rdf_link$" SET end_node_id = 987654 '
        "WHERE link_id = {link_id}", "link-references"),
    "dangling-canon": (
        'UPDATE "rdf_link$" SET canon_end_node_id = 987654 '
        "WHERE link_id = {link_id}", "link-references"),
    "dangling-model": (
        'UPDATE "rdf_link$" SET model_id = 987654 '
        "WHERE link_id = {link_id}", "link-references"),
    "unregistered-subject-node": (
        'DELETE FROM "rdf_node$" WHERE node_id = '
        '(SELECT start_node_id FROM "rdf_link$" '
        "WHERE link_id = {link_id})", "node-registration"),
    "reif-flag-cleared": (
        "UPDATE \"rdf_link$\" SET reif_link = 'N' "
        "WHERE reif_link = 'Y'", "reif-flag"),
    "reif-flag-spurious": (
        "UPDATE \"rdf_link$\" SET reif_link = 'Y' "
        "WHERE link_id = {link_id}", "reif-flag"),
    "negative-cost": (
        'UPDATE "rdf_link$" SET cost = -5 '
        "WHERE link_id = {link_id}", "cost"),
}


class TestEverySweepFires:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corruption_detected(self, seeded, name):
        store, base = seeded
        sql, expected_check = CORRUPTIONS[name]
        store.database.execute(sql.format(link_id=base.rdf_t_id))
        assert expected_check in fired_checks(store), name

    def test_orphan_node(self, seeded):
        store, _base = seeded
        store.database.execute(
            'INSERT INTO "rdf_value$" (value_name, value_type) '
            "VALUES ('urn:nobody', 'UR')")
        store.database.execute(
            'INSERT INTO "rdf_node$" (node_id, node_type) '
            'SELECT value_id, \'UR\' FROM "rdf_value$" '
            "WHERE value_name = 'urn:nobody'")
        assert "orphan-node" in fired_checks(store)

    def test_dangling_reification(self, seeded):
        store, base = seeded
        store.database.execute(
            'DELETE FROM "rdf_link$" WHERE link_id = ?',
            (base.rdf_t_id,))
        assert "dangling-reification" in fired_checks(store)

    def test_literal_predicate(self, seeded):
        store, base = seeded
        store.database.execute(
            'UPDATE "rdf_link$" SET p_value_id = (SELECT value_id '
            'FROM "rdf_value$" WHERE value_type = \'PL\' LIMIT 1) '
            "WHERE link_id = ?", (base.rdf_t_id,))
        assert "predicate-kind" in fired_checks(store)

    def test_literal_subject(self, seeded):
        store, base = seeded
        store.database.execute(
            'UPDATE "rdf_link$" SET start_node_id = (SELECT value_id '
            'FROM "rdf_value$" WHERE value_type = \'PL\' LIMIT 1) '
            "WHERE link_id = ?", (base.rdf_t_id,))
        assert "subject-kind" in fired_checks(store)

    def test_multiple_corruptions_all_reported(self, seeded):
        store, base = seeded
        store.database.execute(
            'UPDATE "rdf_link$" SET cost = -1 WHERE link_id = ?',
            (base.rdf_t_id,))
        store.database.execute(
            "UPDATE \"rdf_link$\" SET reif_link = 'N' "
            "WHERE reif_link = 'Y'")
        checks = fired_checks(store)
        assert {"cost", "reif-flag"} <= checks


class TestDoctorCommand:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    @pytest.fixture
    def db_path(self, tmp_path):
        return str(tmp_path / "doctor.db")

    def test_healthy_store_passes(self, db_path):
        self.run("create-model", db_path, "cia")
        self.run("insert", db_path, "cia", "gov:files",
                 "gov:terrorSuspect", "id:JohnDoe")
        code, output = self.run("doctor", db_path)
        assert code == 0
        assert "ok:" in output

    def test_empty_database_passes(self, db_path):
        RDFStore(db_path).close()
        code, output = self.run("doctor", db_path)
        assert code == 0

    def test_corrupt_store_fails_nonzero(self, db_path):
        self.run("create-model", db_path, "cia")
        self.run("insert", db_path, "cia", "gov:files",
                 "gov:terrorSuspect", "id:JohnDoe")
        from repro.db.connection import Database

        with Database(db_path) as db:
            db.execute("PRAGMA foreign_keys = OFF")
            db.execute('UPDATE "rdf_link$" SET cost = -3')
        code, output = self.run("doctor", db_path)
        assert code == 3
        assert "cost" in output
        assert "problems found" in output

    def test_doctor_reports_durability(self, db_path):
        RDFStore(db_path).close()
        code, output = self.run("--durability", "durable",
                                "doctor", db_path)
        assert code == 0
        assert "durability=durable" in output

    def test_durability_flag_persists_wal_mode(self, db_path):
        self.run("--durability", "durable", "create-model", db_path,
                 "m")
        import sqlite3

        # WAL is a persistent database property: a raw open (no
        # profile pragmas) still sees it.
        connection = sqlite3.connect(db_path)
        try:
            assert connection.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            connection.close()

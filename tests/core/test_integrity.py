"""Tests for the integrity checker, including corruption injection."""

import pytest

from repro.core.integrity import ORPHAN_NODES_SQL, check_integrity


@pytest.fixture
def healthy(store, cia_table):
    """A store with ordinary triples, reifications, and assertions."""
    base = cia_table.insert(1, "cia", "gov:files", "gov:terrorSuspect",
                            "id:JohnDoe")
    cia_table.insert(2, "cia", base.rdf_t_id)
    cia_table.insert(3, "cia", "gov:MI5", "gov:source", base.rdf_t_id)
    cia_table.insert(4, "cia", "id:JohnDoe", "gov:age", '"42"')
    return store, base


class TestHealthyStore:
    def test_no_violations(self, healthy):
        store, _base = healthy
        assert check_integrity(store) == []

    def test_empty_store_clean(self, store):
        assert check_integrity(store) == []

    def test_after_bulk_load(self, store):
        from repro.core.bulkload import BulkLoader
        from repro.workloads.uniprot import UniProtGenerator

        store.create_model("m")
        BulkLoader(store, "m").load(UniProtGenerator().triples(500))
        assert check_integrity(store) == []

    def test_after_removals(self, healthy):
        store, _base = healthy
        store.remove_triple("cia", "id:JohnDoe", "gov:age", '"42"')
        assert check_integrity(store) == []

    def test_after_intel_scenario(self, intel):
        assert check_integrity(intel.store) == []


@pytest.fixture
def unguarded(healthy):
    """The healthy store with FK enforcement off, so corruption can be
    injected (the checker must catch what the engine would normally
    reject)."""
    store, base = healthy
    store.database.execute("PRAGMA foreign_keys = OFF")
    return store, base


class TestSchemaGuards:
    def test_foreign_keys_block_corruption(self, healthy):
        # With FKs on (the default), the engine itself rejects a
        # dangling reference.
        from repro.errors import StorageError

        store, base = healthy
        with pytest.raises(StorageError):
            store.database.execute(
                'UPDATE "rdf_link$" SET p_value_id = 999999 '
                "WHERE link_id = ?", (base.rdf_t_id,))


class TestCorruptionDetected:
    def test_dangling_value_reference(self, unguarded):
        store, base = unguarded
        store.database.execute(
            'UPDATE "rdf_link$" SET p_value_id = 999999 '
            "WHERE link_id = ?", (base.rdf_t_id,))
        checks = {v.check for v in check_integrity(store)}
        assert "link-references" in checks

    def test_missing_node_registration(self, unguarded):
        store, base = unguarded
        store.database.execute(
            'DELETE FROM "rdf_node$" WHERE node_id = ?',
            (base.rdf_s_id,))
        checks = {v.check for v in check_integrity(store)}
        assert "node-registration" in checks

    def test_orphan_node(self, unguarded):
        store, _base = unguarded
        store.database.execute(
            "INSERT INTO \"rdf_value$\" (value_name, value_type) "
            "VALUES ('urn:orphan', 'UR')")
        orphan_id = store.database.query_value(
            "SELECT value_id FROM \"rdf_value$\" "
            "WHERE value_name = 'urn:orphan'")
        store.database.execute(
            'INSERT INTO "rdf_node$" (node_id, node_type) '
            "VALUES (?, 'UR')", (orphan_id,))
        violations = check_integrity(store)
        assert any(v.check == "orphan-node" for v in violations)

    def test_orphan_check_never_rescans_links_per_node(self, healthy):
        """The old NOT EXISTS form was a correlated scan of rdf_link$
        per node — quadratic.  The set difference scans each side
        once."""
        store, _base = healthy
        plan = [row["detail"] for row in store.database.query_all(
            "EXPLAIN QUERY PLAN " + ORPHAN_NODES_SQL)]
        assert not any("CORRELATED" in step for step in plan), plan
        assert sum("rdf_link$" in step for step in plan) == 2, plan
        assert all(step.startswith("SCAN") for step in plan
                   if "rdf_link$" in step), plan

    def test_wrong_reif_flag(self, unguarded):
        store, base = unguarded
        # Clear the flag on the reification statement.
        store.database.execute(
            "UPDATE \"rdf_link$\" SET reif_link = 'N' "
            "WHERE reif_link = 'Y'")
        violations = check_integrity(store)
        assert any(v.check == "reif-flag" for v in violations)

    def test_dangling_reification(self, unguarded):
        store, base = unguarded
        # Delete the base triple out from under its reification.
        store.database.execute(
            'DELETE FROM "rdf_link$" WHERE link_id = ?',
            (base.rdf_t_id,))
        violations = check_integrity(store)
        assert any(v.check == "dangling-reification" for v in violations)

    def test_literal_predicate(self, unguarded):
        store, base = unguarded
        literal_id = store.database.query_value(
            "SELECT value_id FROM \"rdf_value$\" "
            "WHERE value_type = 'PL' LIMIT 1")
        store.database.execute(
            'UPDATE "rdf_link$" SET p_value_id = ? WHERE link_id = ?',
            (literal_id, base.rdf_t_id))
        violations = check_integrity(store)
        assert any(v.check == "predicate-kind" for v in violations)

    def test_literal_subject(self, unguarded):
        store, base = unguarded
        literal_id = store.database.query_value(
            "SELECT value_id FROM \"rdf_value$\" "
            "WHERE value_type = 'PL' LIMIT 1")
        store.database.execute(
            'UPDATE "rdf_link$" SET start_node_id = ? '
            "WHERE link_id = ?", (literal_id, base.rdf_t_id))
        violations = check_integrity(store)
        assert any(v.check == "subject-kind" for v in violations)

    def test_violation_str(self, unguarded):
        store, base = unguarded
        store.database.execute(
            'UPDATE "rdf_link$" SET model_id = 999 WHERE link_id = ?',
            (base.rdf_t_id,))
        violations = check_integrity(store)
        assert violations
        assert "LINK_ID" in str(violations[0])

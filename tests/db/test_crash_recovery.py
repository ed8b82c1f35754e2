"""Crash-recovery tests: kill a real process mid-bulkload and prove
the durable profiles recover via the WAL.

A sacrificial child process loads triples under an armed ``kill``
fault (``os._exit`` — no cleanup, like SIGKILL or a power cut).  The
parent then reopens the database file and asserts the engine and the
central-schema invariants both come back clean.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.bulkload import STAGE_TABLE, STAGE_VALUE_TABLE
from repro.core.integrity import check_integrity
from repro.core.store import RDFStore
from repro.db.faults import KILL_EXIT_CODE

pytestmark = pytest.mark.faults

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The child stages triples and dies when the armed statement runs.
CHILD_SCRIPT = """
import sys
from repro.core.bulkload import BulkLoader
from repro.core.store import RDFStore
from repro.db.faults import FaultInjector
from repro.workloads.uniprot import UniProtGenerator

path, durability, match, site = sys.argv[1:5]
store = RDFStore(path, durability=durability)
if not store.model_exists("m"):
    store.create_model("m")
injector = FaultInjector()
injector.inject("kill", match=match, site=site)
store.database.set_fault_injector(injector)
BulkLoader(store, "m", batch_size=100).load(
    UniProtGenerator().triples(2000))
print("SURVIVED")  # must be unreachable
"""


def staging_in_main_schema(db) -> list[str]:
    """Staging tables the main file holds: staging lives in the
    connection's temp schema, so a crash must never leave one here."""
    return [row[0] for row in db.query_all(
        "SELECT name FROM sqlite_master WHERE name IN (?, ?)",
        (STAGE_TABLE, STAGE_VALUE_TABLE))]


def crash_load(db_path, durability: str, match: str,
               site: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_DURABILITY", None)
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(db_path), durability,
         match, site],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("match,site", [
    # Mid-staging: dies while batches stream into rdf_stage$.
    ('INSERT INTO "rdf_stage$"', "executemany"),
    # Mid-merge: dies while link rows are being created.
    ('INSERT OR IGNORE INTO "rdf_link$"', "statement"),
    # Transaction boundary: dies on the outermost COMMIT.
    ("COMMIT", "statement"),
])
def test_kill_mid_bulkload_recovers_clean(tmp_path, match, site):
    db_path = tmp_path / "crash.db"
    result = crash_load(db_path, "durable", match, site)
    assert result.returncode == KILL_EXIT_CODE, result.stderr
    assert "SURVIVED" not in result.stdout
    assert db_path.exists()

    with RDFStore(db_path, durability="durable") as store:
        db = store.database
        # The engine recovered via the WAL ...
        assert db.query_value("PRAGMA integrity_check") == "ok"
        # ... the open load transaction is gone in full ...
        assert db.row_count("rdf_link$") == 0
        assert staging_in_main_schema(db) == []
        # ... and every schema invariant holds.
        assert check_integrity(store) == []
        # The recovered database is fully usable.
        store.insert_triple("m", "gov:files", "gov:terrorSuspect",
                            "id:JohnDoe")
        assert db.row_count("rdf_link$") == 1


def test_kill_mid_bulkload_paranoid_profile(tmp_path):
    db_path = tmp_path / "paranoid.db"
    result = crash_load(db_path, "paranoid",
                        'INSERT OR IGNORE INTO "rdf_link$"')
    assert result.returncode == KILL_EXIT_CODE, result.stderr
    with RDFStore(db_path, durability="paranoid") as store:
        assert store.database.query_value(
            "PRAGMA integrity_check") == "ok"
        assert check_integrity(store) == []
        assert staging_in_main_schema(store.database) == []


def test_completed_load_survives_later_kill(tmp_path):
    """Work committed before the crash is durable after it."""
    db_path = tmp_path / "durable.db"
    # First child: loads successfully (no matching fault site — the
    # armed statement never runs because the match misses).
    result = crash_load(db_path, "durable", "NO SUCH STATEMENT")
    assert result.returncode == 0, result.stderr
    assert "SURVIVED" in result.stdout
    with RDFStore(db_path, durability="durable") as store:
        loaded = store.database.row_count("rdf_link$")
        assert loaded > 0

    # Second child: same database, dies mid-second-load.
    result = crash_load(db_path, "durable",
                        'INSERT OR IGNORE INTO "rdf_link$"')
    assert result.returncode == KILL_EXIT_CODE, result.stderr
    with RDFStore(db_path, durability="durable") as store:
        # The first load's triples are all still there ...
        assert store.database.row_count("rdf_link$") == loaded
        assert staging_in_main_schema(store.database) == []
        assert check_integrity(store) == []

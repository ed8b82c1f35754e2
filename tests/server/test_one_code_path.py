"""One contract, both store shapes.

The server runs every route once over a list of (pool, writer) units;
a single file is one unit, ``shards=N`` is N.  Each case here runs
against ``shards=1`` and ``shards=2`` from the same fixture, so the
two shapes can only differ in their storage — a deadline, a dropped
model, a version vector, a gauge and a slow trace mean the same thing
on both.
"""

from __future__ import annotations

import time

import pytest

from repro.core.store import RDFStore
from repro.errors import ServerError
from repro.server.app import ReproServer, ServerConfig
from repro.server.client import ReproClient

#: The self-join over the hub dataset — quadratic, reliably slow.
SLOW_QUERY = "(?a <urn:p> ?h) (?b <urn:p> ?h)"


@pytest.fixture(params=(1, 2), ids=("file", "shards"))
def shards(request):
    return request.param


@pytest.fixture
def server(tmp_path, shards):
    config = ServerConfig(path=str(tmp_path / "uni.db"), shards=shards,
                          workers=2, backlog=2, slow_threshold=0)
    with ReproServer(config) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    with ReproClient(host, port) as c:
        yield c


def load_hub(client, nodes=700):
    """A dataset whose self-join is slow: ``nodes``^2 result rows."""
    client.insert("m", [[f"<urn:s{i}>", "<urn:p>", "<urn:hub>"]
                        for i in range(nodes)], create=True)


def seed(client, count=6):
    return client.insert(
        "m", [[f"<urn:s{i}>", "<urn:p>", f"<urn:o{i}>"]
              for i in range(count)], create=True)


class TestDeadline:
    def test_slow_match_is_504_and_leaks_no_lease(self, server, client):
        load_hub(client)
        started = time.perf_counter()
        with pytest.raises(ServerError) as info:
            client.match(SLOW_QUERY, "m", deadline=0.05)
        assert info.value.status == 504
        assert time.perf_counter() - started < 1.0
        assert client.stats()["pool"]["in_use"] == 0
        if server.engine is not None:
            assert server.engine.pool_in_use() == 0
        # The connection still serves afterwards (no leaked lease, no
        # desynced framing).
        assert client.match("(?a <urn:p> ?h)", "m",
                            limit=5)["count"] == 5

    def test_slow_batch_is_504_batch_wide(self, client):
        load_hub(client)
        with pytest.raises(ServerError) as info:
            client.match_batch(
                [{"query": "(<urn:s1> <urn:p> ?h)", "models": ["m"]},
                 {"query": SLOW_QUERY, "models": ["m"]}],
                deadline=0.05)
        assert info.value.status == 504
        assert client.stats()["pool"]["in_use"] == 0


class TestDroppedModel:
    def test_drop_behind_the_servers_back_is_404(self, server, client,
                                                 shards):
        seed(client)
        # Warm the pooled readers' model caches.
        assert client.match("(?s <urn:p> ?o)", "m")["count"] == 6
        with RDFStore(server.config.path, durability="durable",
                      shards=shards) as other:
            other.drop_model("m")
        with pytest.raises(ServerError) as info:
            client.match("(?s <urn:p> ?o)", "m")
        assert info.value.status == 404  # ModelNotFoundError


class TestVersionVector:
    def test_match_and_batch_name_the_same_vector(self, client, shards):
        seed(client)
        single = client.match("(?s <urn:p> ?o)", "m")
        batch = client.match_batch(
            [{"query": "(?s <urn:p> ?o)", "models": ["m"]}])
        for body in (single, batch):
            vector = body["data_version_vector"]
            assert len(vector) == shards
            assert sum(vector) == body["data_version"]
        assert batch["data_version_vector"] == \
            single["data_version_vector"]

    def test_vector_is_monotone_across_an_insert(self, client):
        seed(client)
        before = client.match("(?s <urn:p> ?o)", "m")
        written = client.insert(
            "m", [["<urn:new>", "<urn:p>", "<urn:o>"]])
        after = client.match("(?s <urn:p> ?o)", "m")
        assert after["count"] == before["count"] + 1
        assert after["data_version"] > before["data_version"]
        assert all(new >= old for old, new in zip(
            before["data_version_vector"],
            after["data_version_vector"]))
        # The write names the units it committed on.
        assert written["created"] == written["count"] == 1
        assert written["write_version"] == \
            sum(written["shards"].values())

    def test_delete_names_its_owning_unit(self, client, shards):
        seed(client)
        body = client.delete("m", "<urn:s1>", "<urn:p>", "<urn:o1>")
        assert body["removed"] is True
        assert 0 <= body["shard"] < shards
        assert body["write_version"] >= 1


class TestGauges:
    def test_stats_and_health_aggregate_the_units(self, client, shards):
        seed(client)
        client.match("(?s <urn:p> ?o)", "m")
        stats = client.stats()
        versions = stats["versions"]
        assert len(versions["write_version_vector"]) == shards
        assert versions["write_version"] == \
            sum(versions["write_version_vector"]) >= 1
        assert len(versions["data_version"]) == shards
        assert stats["pool"]["size"] == 2 * shards
        assert stats["pool"]["leases"] >= 1
        assert stats["pool"]["in_use"] == 0
        assert stats["writer"]["running"] is True
        assert stats["writer"]["jobs_done"] >= 1
        assert len(stats["shards"]) == shards
        assert stats["server"]["engine"] == \
            ("single" if shards == 1 else "sharded")
        health = client.health()
        assert health["status"] == "ok"
        assert health["integrity"] == "ok"
        assert health["writer_running"] is True


class TestSlowTrace:
    def test_slow_match_says_what_ran(self, client, shards):
        seed(client)
        client.match("(?s <urn:p> ?o)", "m", request_id="slow-one")
        notes = client.debug_trace("slow-one")["annotations"]
        assert notes["rows"] == 6
        assert len(notes["data_version_vector"]) == shards
        if shards == 1:
            assert notes["engine"] == "sql"
            assert "SDO_RDF_MATCH plan" in notes["explain"]
            assert "SELECT" in notes["plan_sql"].upper()
        else:
            assert notes["engine"] == "scatter"

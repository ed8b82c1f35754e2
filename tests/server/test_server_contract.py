"""The server's contract over its one file, one pool and one writer.

A deadline, a dropped model, the version a response names, the
saturation gauges and a slow trace each mean one thing: the file's
durable ``write_version`` and the pool's and writer's own numbers.
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


@pytest.fixture
def server(tmp_path):
    config = ServerConfig(path=str(tmp_path / "uni.db"), workers=2,
                          backlog=2, slow_threshold=0)
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
    def test_slow_match_is_504_and_leaks_no_lease(self, client):
        load_hub(client)
        started = time.perf_counter()
        with pytest.raises(ServerError) as info:
            client.match(SLOW_QUERY, "m", deadline=0.05)
        assert info.value.status == 504
        assert time.perf_counter() - started < 1.0
        assert client.stats()["pool"]["in_use"] == 0
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
    def test_drop_behind_the_servers_back_is_404(self, server, client):
        seed(client)
        # Warm the pooled readers' model caches.
        assert client.match("(?s <urn:p> ?o)", "m")["count"] == 6
        with RDFStore(server.config.path, durability="durable") as other:
            other.drop_model("m")
        with pytest.raises(ServerError) as info:
            client.match("(?s <urn:p> ?o)", "m")
        assert info.value.status == 404  # ModelNotFoundError


class TestVersion:
    def test_match_and_batch_name_the_same_version(self, client):
        written = seed(client)
        single = client.match("(?s <urn:p> ?o)", "m")
        batch = client.match_batch(
            [{"query": "(?s <urn:p> ?o)", "models": ["m"]}])
        assert single["data_version"] == batch["data_version"] \
            == written["write_version"]

    def test_version_is_monotone_across_an_insert(self, client):
        seed(client)
        before = client.match("(?s <urn:p> ?o)", "m")
        written = client.insert(
            "m", [["<urn:new>", "<urn:p>", "<urn:o>"]])
        after = client.match("(?s <urn:p> ?o)", "m")
        assert after["count"] == before["count"] + 1
        assert written["created"] == written["count"] == 1
        assert after["data_version"] == written["write_version"] \
            > before["data_version"]

    def test_delete_names_its_write_version(self, client):
        written = seed(client)
        body = client.delete("m", "<urn:s1>", "<urn:p>", "<urn:o1>")
        assert body == {"removed": True,
                        "write_version": written["write_version"] + 1}


class TestGauges:
    def test_stats_and_health_read_one_pool_and_writer(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", "m")
        stats = client.stats()
        assert stats["versions"]["write_version"] >= 1
        assert len(stats["versions"]["data_version"]) == 1
        assert stats["pool"]["size"] == 2
        assert stats["pool"]["leases"] >= 1
        assert stats["pool"]["in_use"] == 0
        assert stats["writer"]["running"] is True
        assert stats["writer"]["jobs_done"] >= 1
        health = client.health()
        assert health["status"] == "ok"
        assert health["integrity"] == "ok"
        assert health["writer_running"] is True

    def test_admission_samples_one_depth_and_one_occupancy(self, client):
        seed(client)
        gauges = [line.split()[0]
                  for line in client.metrics_text().splitlines()
                  if line and not line.startswith("#")
                  and ("queue_depth" in line or "in_use" in line)]
        assert sorted(gauges) == ["pool_in_use", "server_queue_depth"]


class TestSlowTrace:
    def test_slow_match_says_what_ran(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", "m", request_id="slow-one")
        notes = client.debug_trace("slow-one")["annotations"]
        assert notes["rows"] == 6
        assert notes["data_version"] >= 1
        assert notes["engine"] == "sql"
        assert "SDO_RDF_MATCH plan" in notes["explain"]
        assert "SELECT" in notes["plan_sql"].upper()

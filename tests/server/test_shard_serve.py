"""Tests for the serving layer in sharded mode (shards > 1).

One ReproServer over a ShardedRDFStore: per-shard writer queues and
read pools, scatter-gather /match with a data_version *vector*,
fan-out /insert, routed /delete, per-shard /stats rows and /metrics
gauges, and a per-shard integrity probe on /healthz.
"""

import pytest

from repro.errors import StorageError
from repro.server.app import ReproServer, ServerConfig
from repro.server.client import ReproClient, ServerError


@pytest.fixture
def server(tmp_path):
    config = ServerConfig(path=str(tmp_path / "uni.db"), shards=3,
                          workers=2)
    with ReproServer(config) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with ReproClient(host, port) as c:
        yield c


def _seed(client, count=6):
    triples = [[f"<http://s{i}>", "<http://p>", f"<http://o{i}>"]
               for i in range(count)]
    return client.insert("m", triples, create=True)


class TestConfig:
    def test_shards_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError):
            ServerConfig(path=str(tmp_path / "x.db"), shards=0)

    def test_start_builds_engine_not_pool(self, server):
        assert server.engine is not None
        assert server.pool is None and server.writer is None
        assert server.engine.shard_count == 3


class TestShardedRoutes:
    def test_insert_reports_per_shard_versions(self, client):
        body = _seed(client, 8)
        assert body["created"] == 8 and body["count"] == 8
        assert body["shards"]  # at least one shard committed
        assert body["write_version"] == \
            sum(body["shards"].values())

    def test_match_carries_version_vector(self, client):
        _seed(client)
        body = client.match("(?s <http://p> ?o)", ["m"])
        assert body["count"] == 6
        vector = body["data_version_vector"]
        assert len(vector) == 3
        assert body["data_version"] == sum(vector)

    def test_anchored_match(self, client):
        _seed(client)
        body = client.match("(<http://s2> <http://p> ?o)", ["m"])
        assert body["count"] == 1
        assert body["rows"][0]["o"] == "http://o2"

    def test_scattered_match_says_what_ran_on_its_trace(self, client):
        _seed(client)
        query = "(?s <http://p> ?o)"
        client.match(query, ["m"], request_id="scattered")
        notes = client.debug_trace("scattered")["annotations"]
        assert notes["query"] == query
        assert notes["engine"] == "scatter"
        # A subject-anchored query stays on one shard's SQL engine.
        client.match("(<http://s2> <http://p> ?o)", ["m"],
                     request_id="anchored")
        notes = client.debug_trace("anchored")["annotations"]
        assert notes["engine"] == "sql"

    def test_rulebases_rejected_with_400(self, client):
        _seed(client)
        with pytest.raises(ServerError) as info:
            client.match("(?s ?p ?o)", ["m"], rulebases=["rdfs"])
        assert info.value.status == 400

    def test_delete_routes_to_one_shard(self, client):
        _seed(client)
        body = client.delete("m", "<http://s1>", "<http://p>",
                             "<http://o1>")
        assert body["removed"] is True
        assert "shard" in body
        after = client.match("(?s <http://p> ?o)", ["m"])
        assert after["count"] == 5

    def test_insert_is_exactly_once_per_key(self, client):
        _seed(client)
        triples = [["<http://x>", "<http://p>", "<http://y>"]]
        first = client.insert("m", triples, idempotency_key="k-1")
        replay = client.insert("m", triples, idempotency_key="k-1")
        assert first["created"] == 1
        assert replay.get("idempotent_replay") is True
        assert replay["created"] == first["created"]
        assert client.match("(<http://x> <http://p> ?o)",
                            ["m"])["count"] == 1

    def test_missing_model_is_404(self, client):
        with pytest.raises(ServerError) as info:
            client.insert("ghost", [["<a:s>", "<a:p>", "<a:o>"]])
        assert info.value.status == 404


class TestShardedObservability:
    def test_stats_exposes_per_shard_rows(self, client):
        _seed(client)
        stats = client.stats()
        assert stats["server"]["engine"] == "sharded"
        rows = stats["shards"]
        assert len(rows) == 3
        for row in rows:
            assert {"shard", "path", "writer", "pool",
                    "write_version", "data_version"} <= set(row)
        assert sum(row["write_version"] for row in rows) >= 1

    def test_metrics_export_per_shard_gauges(self, client):
        _seed(client)
        client.stats()  # samples saturation
        text = client.metrics_text()
        for index in range(3):
            assert f"shard{index}_queue_depth" in text

    def test_healthz_probes_every_shard(self, client):
        _seed(client)
        report = client.health()
        assert report["status"] == "ok"
        assert report["integrity"] == "ok"
        assert report["writer_running"] is True


class TestShardedPersistence:
    def test_data_survives_restart(self, tmp_path):
        path = str(tmp_path / "uni.db")
        config = ServerConfig(path=path, shards=2, workers=2)
        with ReproServer(config) as srv:
            host, port = srv.address
            with ReproClient(host, port) as c:
                _seed(c, 5)
        with ReproServer(ServerConfig(path=path, shards=2,
                                      workers=2)) as srv:
            host, port = srv.address
            with ReproClient(host, port) as c:
                assert c.match("(?s <http://p> ?o)",
                               ["m"])["count"] == 5

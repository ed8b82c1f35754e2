"""End-to-end tests for the server-tier result cache and /match/batch.

Every test runs a real :class:`ReproServer` on an ephemeral port.  The
cache lives at the app level, shared by the pooled reader threads and
keyed on the durable ``rdf_serve_state$`` write_version, so hits are
provably the exact snapshot their ``data_version`` names.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db.faults import FaultInjector
from repro.errors import ServerError
from repro.server.app import ReproServer, ServerConfig
from repro.server.chaos import arm_faults
from repro.server.client import ReproClient


def make_server(tmp_path, **overrides):
    defaults = dict(path=str(tmp_path / "serve.db"), port=0,
                    workers=2, backlog=2, pool_timeout=0.2,
                    result_cache=True)
    defaults.update(overrides)
    return ReproServer(ServerConfig(**defaults))


@pytest.fixture
def server(tmp_path):
    with make_server(tmp_path) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    with ReproClient(host, port) as c:
        yield c


def seed(client, n=3, model="m"):
    client.insert(model,
                  [[f"<urn:s{i}>", "<urn:p>", f"<urn:o{i}>"]
                   for i in range(n)],
                  create=True)


#: Quadratic self-join; reliably slower than a tight deadline.
SLOW_QUERY = "(?a <urn:p> ?h) (?b <urn:p> ?h)"


# ----------------------------------------------------------------------
# /match through the cache
# ----------------------------------------------------------------------

class TestCacheServe:
    def test_hit_invalidate_miss_refill(self, client):
        seed(client)
        first = client.match("(?s <urn:p> ?o)", ["m"])
        assert first["cached"] is False
        hit = client.match("(?s <urn:p> ?o)", ["m"])
        assert hit["cached"] is True
        assert hit["rows"] == first["rows"]
        assert hit["data_version"] == first["data_version"]

        # A write moves write_version: the next read recomputes...
        client.insert("m", [["<urn:s9>", "<urn:p>", "<urn:o9>"]])
        miss = client.match("(?s <urn:p> ?o)", ["m"])
        assert miss["cached"] is False
        assert miss["count"] == 4
        assert miss["data_version"] > first["data_version"]
        # ...and refills under the new version.
        refill = client.match("(?s <urn:p> ?o)", ["m"])
        assert refill["cached"] is True
        assert refill["count"] == 4

    def test_normalized_spellings_share_one_entry(self, client,
                                                  server):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m"])
        hit = client.match("(  ?s   <urn:p>  ?o )", ["M"])
        assert hit["cached"] is True
        assert len(server.result_cache) == 1

    def test_cached_flag_absent_without_cache(self, tmp_path):
        with make_server(tmp_path, result_cache=False) as server:
            host, port = server.address
            with ReproClient(host, port) as c:
                seed(c)
                result = c.match("(?s <urn:p> ?o)", ["m"])
                assert "cached" not in result

    def test_stats_and_metrics_surface_counters(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m"])
        client.match("(?s <urn:p> ?o)", ["m"])
        stats = client.stats()
        assert stats["server"]["result_cache"] is True
        counters = stats["result_cache"]
        assert counters["hits"] >= 1
        assert counters["entries"] >= 1
        text = client.metrics_text()
        assert "result_cache.entries" in text.replace("_entries",
                                                      ".entries") \
            or "result_cache" in text


# ----------------------------------------------------------------------
# /match/batch
# ----------------------------------------------------------------------

class TestMatchBatch:
    def test_snapshot_consistency_one_data_version(self, client):
        seed(client, n=4)
        batch = client.match_batch([
            {"query": "(?s <urn:p> ?o)", "models": ["m"]},
            {"query": "(<urn:s0> <urn:p> ?o)", "models": ["m"]},
            {"query": "(?s <urn:p> ?o)", "models": ["m"], "limit": 2},
        ])
        assert batch["errors"] == 0
        assert batch["count"] == 3
        assert len(batch["results"]) == 3
        # One transaction, one version: every sub-result shares it.
        single = client.match("(?s <urn:p> ?o)", ["m"])
        assert batch["data_version"] == single["data_version"]
        assert batch["results"][0]["count"] == 4
        assert batch["results"][2]["count"] == 2

    def test_partial_failure_isolation(self, client):
        seed(client)
        batch = client.match_batch([
            {"query": "(?s <urn:p> ?o)", "models": ["m"]},
            {"query": "(?s <urn:p> ?o)", "models": ["nope"]},
            {"query": "(?s <urn:p>)", "models": ["m"]},
            {"query": "(?s <urn:p> ?o)", "models": ["m"], "limit": 1},
        ])
        assert batch["errors"] == 2
        results = batch["results"]
        assert results[0]["count"] == 3
        assert results[1]["type"] == "ModelNotFoundError"
        assert "error" in results[2]
        assert results[3]["count"] == 1

    def test_batch_reads_and_fills_the_cache(self, client):
        seed(client)
        warm = client.match("(?s <urn:p> ?o)", ["m"])
        assert warm["cached"] is False
        batch = client.match_batch([
            {"query": "( ?s  <urn:p> ?o )", "models": ["m"]},
            {"query": "(<urn:s1> <urn:p> ?o)", "models": ["m"]},
        ])
        assert batch["results"][0]["cached"] is True
        assert batch["results"][1]["cached"] is False
        # The batch's miss is now warm for /match.
        assert client.match("(<urn:s1> <urn:p> ?o)",
                            ["m"])["cached"] is True

    def test_deadline_applies_batch_wide_504(self, client):
        # A hub dataset: the self-join is quadratic (700^2 rows).
        client.insert("m", [[f"<urn:s{i}>", "<urn:p>", "<urn:hub>"]
                            for i in range(700)], create=True)
        with pytest.raises(ServerError) as info:
            client.match_batch(
                [{"query": "(<urn:s0> <urn:p> ?o)", "models": ["m"]},
                 {"query": SLOW_QUERY, "models": ["m"]}],
                deadline=0.05)
        # DeadlineExceeded is NOT isolated per-query: the whole batch
        # answers 504 — the budget belongs to the request.
        assert info.value.status == 504

    def test_saturated_gate_answers_429(self, tmp_path):
        with make_server(tmp_path, workers=1, backlog=0) as server:
            host, port = server.address
            with ReproClient(host, port) as setup:
                seed(setup)
            # The seed request's readmit() runs after its response
            # bytes went out, so its slot may not be back yet.
            give_up = time.monotonic() + 5.0
            while not server.admit():
                assert time.monotonic() < give_up, "slot never freed"
                time.sleep(0.005)
            try:
                with ReproClient(host, port) as c:
                    with pytest.raises(ServerError) as info:
                        c.match_batch([{"query": "(?s ?p ?o)",
                                        "models": ["m"]}])
                assert info.value.status == 429
                assert info.value.retry_after is not None
            finally:
                server.readmit()

    def test_idempotency_key_makes_resend_safe(self, client):
        seed(client)
        batch = client.match_batch(
            [{"query": "(?s <urn:p> ?o)", "models": ["m"]}],
            idempotency_key="batch-key-1")
        again = client.match_batch(
            [{"query": "(?s <urn:p> ?o)", "models": ["m"]}],
            idempotency_key="batch-key-1")
        assert again["results"][0]["rows"] == \
            batch["results"][0]["rows"]

    def test_request_validation(self, client):
        for bad in [{}, {"queries": []}, {"queries": "nope"},
                    {"queries": [42]}]:
            with pytest.raises(ServerError) as info:
                client._request("POST", "/match/batch", bad)
            assert info.value.status == 400

    def test_batch_limit_enforced(self, tmp_path):
        with make_server(tmp_path, batch_limit=2) as server:
            host, port = server.address
            with ReproClient(host, port) as c:
                seed(c)
                entry = {"query": "(?s ?p ?o)", "models": ["m"]}
                assert c.match_batch([entry, entry])["count"] == 2
                with pytest.raises(ServerError) as info:
                    c.match_batch([entry, entry, entry])
                assert info.value.status == 400


# ----------------------------------------------------------------------
# pooled readers whose data_version counters have drifted apart
# ----------------------------------------------------------------------

def test_drifted_readers_stay_coherent(tmp_path):
    """A lease held across each ``/insert`` leaves that reader's local
    ``data_version`` behind its sibling's; the tier keys on the durable
    ``write_version``, so no reader's counter can make it serve the
    pre-insert rows."""
    query = "(?s <urn:p> ?o)"
    with make_server(tmp_path, workers=2) as server:
        pool = server.pool
        host, port = server.address
        with ReproClient(host, port) as c:
            seed(c, n=2)
            assert c.match(query, ["m"])["cached"] is False
            assert c.match(query, ["m"])["cached"] is True
            for count in (3, 4):
                held = pool.acquire()
                try:
                    c.insert("m", [[f"<urn:s{count}>", "<urn:p>",
                                    f"<urn:o{count}>"]])
                    fresh = c.match(query, ["m"])
                    assert (fresh["count"], fresh["cached"]) \
                        == (count, False)
                    again = c.match(query, ["m"])
                    assert (again["count"], again["cached"]) \
                        == (count, True)
                finally:
                    pool.release(held)


# ----------------------------------------------------------------------
# the 8-reader/1-writer storm under seeded faults
# ----------------------------------------------------------------------

class TestCacheStorm:
    def test_hit_invalidate_miss_refill_under_faults(self, tmp_path):
        """Eight readers hammer one query shape while a writer mutates
        the model under a seeded slow-SQL schedule.  Every cached
        answer must carry a data_version at least as new as the last
        write acknowledged before the read went out, and the cache
        must keep cycling hit -> invalidate -> miss -> refill."""
        faults = FaultInjector(seed=1351)
        arm_faults(faults, "slow-sql", chance=0.2, delay=0.002)
        with make_server(tmp_path, workers=4, backlog=16,
                         pool_timeout=2.0, faults=faults) as server:
            host, port = server.address
            with ReproClient(host, port) as setup:
                seed(setup)

            lock = threading.Lock()
            floor = [0]          # max acknowledged write_version
            stale = []           # (served_version, floor_at_send)
            outcomes = {"hits": 0, "misses": 0, "errors": 0}
            stop = threading.Event()

            def reader(_index):
                with ReproClient(host, port, timeout=30.0) as c:
                    while not stop.is_set():
                        with lock:
                            sent_floor = floor[0]
                        try:
                            result = c.match("(?s <urn:p> ?o)",
                                             ["m"])
                        except ServerError:
                            with lock:
                                outcomes["errors"] += 1
                            continue
                        with lock:
                            if result["cached"]:
                                outcomes["hits"] += 1
                                if result["data_version"] < sent_floor:
                                    stale.append(
                                        (result["data_version"],
                                         sent_floor))
                            else:
                                outcomes["misses"] += 1

            def writer():
                with ReproClient(host, port, timeout=30.0) as c:
                    for index in range(25):
                        outcome = c.insert(
                            "m", [[f"<urn:w{index}>", "<urn:p>",
                                   f"<urn:o{index}>"]])
                        with lock:
                            floor[0] = max(floor[0],
                                           outcome["write_version"])
                        stop.wait(0.01)
                stop.set()

            threads = [threading.Thread(target=reader, args=(n,))
                       for n in range(8)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not stale, (
                f"stale cache serves under faults: {stale[:5]}")
            # The storm exercised the full cycle, not one degenerate
            # mode: repeated reads hit, every write forced misses.
            assert outcomes["hits"] > 0
            assert outcomes["misses"] >= 25
            stats = server.result_cache.stats()
            assert stats["invalidations"] > 0
            assert faults.stats().get("fired", 0) > 0

            # The final state is the writer's last word.
            with ReproClient(host, port) as c:
                final = c.match("(?s <urn:p> ?o)", ["m"])
                assert final["count"] == 3 + 25

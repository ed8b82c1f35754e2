"""Thread-safety regressions for the planner's shared caches.

Pooled server readers plan queries concurrently; the plan cache and
the statistics cache each sit on one shared store.  These tests hammer
them from 8 threads — without the locks added for the serving layer
they corrupt their dicts or return partially-initialised state.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.store import RDFStore
from repro.db.connection import Database
from repro.inference.match import sdo_rdf_match
from repro.inference.plan import PlanCache

THREADS = 8


def hammer(worker, threads=THREADS):
    """Run ``worker(index)`` in N threads; re-raise the first failure."""
    errors: list[BaseException] = []

    def run(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - test harness
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,))
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    if errors:
        raise errors[0]


@pytest.fixture
def shared_store(tmp_path):
    """A file-backed store usable from many threads (one connection)."""
    database = Database(tmp_path / "threads.db", durability="durable",
                        check_same_thread=False)
    store = RDFStore(database)
    store.create_model("m1")
    with database.transaction():
        for i in range(40):
            store.insert_triple("m1", f"<urn:s{i % 10}>",
                                f"<urn:p{i % 4}>", f"<urn:o{i}>")
    yield store
    store.close()


class TestPlanCacheThreads:
    def test_concurrent_store_lookup_clear(self):
        from types import SimpleNamespace

        cache = PlanCache(capacity=16)

        def worker(index):
            for i in range(400):
                key = ("q", (index + i) % 24)
                cache.store(key,
                            plan=SimpleNamespace(data_version=0))
                cache.lookup(key, data_version=0)
                if i % 97 == 0:
                    cache.clear()
                stats = cache.stats()
                assert 0 <= stats["entries"] <= 16

        hammer(worker)
        assert len(cache) <= 16

    def test_concurrent_queries_share_the_cache(self, shared_store):
        expected = len(sdo_rdf_match(
            shared_store, "(?s <urn:p0> ?o)", ["m1"]))

        def worker(index):
            for _ in range(25):
                rows = sdo_rdf_match(shared_store, "(?s <urn:p0> ?o)",
                                     ["m1"])
                assert len(rows) == expected

        hammer(worker)
        stats = shared_store.plan_cache.stats()
        assert stats["hits"] > 0
        # One compile raced in per version at most; never one per call.
        assert stats["misses"] < THREADS * 25

    def test_concurrent_binds_of_one_template(self, shared_store):
        """Every thread binds its own subject against the one shared
        template and must see only that subject's rows."""
        sdo_rdf_match(shared_store, "(<urn:s0> ?p ?o)", ["m1"])
        before = shared_store.plan_cache.stats()

        def worker(index):
            subject = index % 10
            expected = {f"urn:o{i}" for i in range(subject, 40, 10)}
            for _ in range(50):
                rows = sdo_rdf_match(shared_store,
                                     f"(<urn:s{subject}> ?p ?o)", ["m1"])
                assert {row["o"] for row in rows} == expected

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        stats = shared_store.plan_cache.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == before["misses"]
        assert stats["hits"] - before["hits"] == THREADS * 50


class TestMatchStatisticsThreads:
    def test_concurrent_estimates_with_invalidation(self, shared_store):
        statistics = shared_store.match_statistics
        model_id = shared_store.models.get("m1").model_id
        bump = threading.Event()

        def worker(index):
            if index == 0:
                # One thread keeps invalidating while others read.
                for _ in range(50):
                    shared_store.database.bump_data_version()
                bump.set()
                return
            for _ in range(200):
                total = statistics.dataset_size([model_id])
                assert total == 40
                estimate, counts = statistics.estimate_rows(
                    [model_id], {})
                assert estimate == 40.0

        hammer(worker)
        assert bump.is_set()
        # The cache settles on the final version's figures.
        assert statistics.dataset_size([model_id]) == 40

    def test_lazy_properties_initialise_once(self, shared_store):
        seen = []

        def worker(index):
            seen.append(shared_store.plan_cache)
            seen.append(shared_store.match_statistics)

        hammer(worker)
        caches = {id(obj) for obj in seen[::2]}
        stats = {id(obj) for obj in seen[1::2]}
        assert len(caches) == 1, "plan_cache constructed more than once"
        assert len(stats) == 1, "match_statistics constructed twice"

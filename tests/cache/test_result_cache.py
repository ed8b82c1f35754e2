"""Unit tests for the byte-capped, version-keyed LRU result cache,
plus its in-process integration with RDFStore."""

from __future__ import annotations

import threading

import pytest

from repro.cache import ResultCache
from repro.cache.result_cache import (
    DEFAULT_MAX_BYTES,
    estimate_bytes,
)
from repro.errors import QueryError
from repro.inference.match import sdo_rdf_match


class TestEstimateBytes:
    def test_strings_count_content(self):
        assert estimate_bytes("abcd") == estimate_bytes("") + 4

    def test_containers_count_slots_and_children(self):
        flat = estimate_bytes([1, 2, 3])
        assert flat > estimate_bytes([1])
        nested = estimate_bytes({"k": ["a" * 100]})
        assert nested > 100

    def test_scalars_have_flat_overhead(self):
        assert estimate_bytes(12345) == estimate_bytes(None)


class TestResultCache:
    def test_default_cap(self):
        assert ResultCache().max_bytes == DEFAULT_MAX_BYTES

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(QueryError):
            ResultCache(max_bytes=0)

    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup("k", 1) is None
        cache.store("k", 1, ["row"])
        assert cache.lookup("k", 1) == ["row"]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1

    def test_version_mismatch_invalidates(self):
        cache = ResultCache()
        cache.store("k", 1, ["old"])
        # A newer version deletes the stale entry and reports a miss.
        assert cache.lookup("k", 2) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0
        # One slot per shape: re-store under the new version.
        cache.store("k", 2, ["new"])
        assert len(cache) == 1
        assert cache.lookup("k", 2) == ["new"]

    def test_vector_versions_compare_by_equality(self):
        cache = ResultCache()
        cache.store("k", (3, 5), ["rows"])
        assert cache.lookup("k", (3, 5)) == ["rows"]
        # Any component moving — even "backward" — invalidates.
        assert cache.lookup("k", (3, 6)) is None

    def test_would_serve_is_pure(self):
        cache = ResultCache()
        cache.store("k", 1, ["row"])
        before = cache.stats()
        assert cache.would_serve("k", 1) is True
        assert cache.would_serve("k", 2) is False
        assert cache.would_serve("other", 1) is False
        after = cache.stats()
        assert after == before  # no counters, no invalidation
        assert len(cache) == 1  # the stale peek did not delete

    def test_lru_eviction_under_byte_cap(self):
        cache = ResultCache(max_bytes=250)
        cache.store("a", 1, "x", nbytes=100)
        cache.store("b", 1, "y", nbytes=100)
        assert cache.lookup("a", 1) == "x"  # touch: a is now newest
        cache.store("c", 1, "z", nbytes=100)  # 300 > 250: evict LRU=b
        assert set(cache.keys()) == {"a", "c"}
        assert cache.stats()["evictions"] == 1
        assert cache.current_bytes == 200

    def test_oversized_value_rejected(self):
        cache = ResultCache(max_bytes=100)
        assert cache.store("k", 1, "big", nbytes=101) is False
        assert len(cache) == 0
        assert cache.stats()["rejects"] == 1

    def test_restore_same_key_replaces_bytes(self):
        cache = ResultCache(max_bytes=1000)
        cache.store("k", 1, "v1", nbytes=400)
        cache.store("k", 2, "v2", nbytes=300)
        assert cache.current_bytes == 300
        assert len(cache) == 1

    def test_thread_safety_smoke(self):
        cache = ResultCache(max_bytes=10_000)
        errors = []

        def worker(seed):
            try:
                for index in range(200):
                    key = (seed + index) % 7
                    cache.store(key, index % 3, [seed, index],
                                nbytes=50)
                    cache.lookup(key, index % 3)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["bytes"] >= 0
        assert stats["entries"] == len(list(cache.keys()))


# ----------------------------------------------------------------------
# in-process store integration
# ----------------------------------------------------------------------

def _seed(store, model="m", n=3):
    store.create_model(model)
    for index in range(n):
        store.insert_triple(model, f"<urn:s{index}>", "<urn:p>",
                            f"<urn:o{index}>")


class TestStoreIntegration:
    def test_enable_and_hit(self, store):
        _seed(store)
        cache = store.enable_result_cache()
        first = sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"])
        again = sdo_rdf_match(store, "( ?s  <urn:p>  ?o )", ["m"])
        assert [r.as_dict() for r in first] \
            == [r.as_dict() for r in again]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 1  # one slot for both spellings

    def test_write_invalidates(self, store):
        _seed(store)
        cache = store.enable_result_cache()
        assert len(sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"])) == 3
        store.insert_triple("m", "<urn:s9>", "<urn:p>", "<urn:o9>")
        rows = sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"])
        assert len(rows) == 4  # fresh rows, not the cached 3
        assert cache.stats()["invalidations"] == 1

    def test_explain_reports_cache_engine(self, store):
        _seed(store)
        store.enable_result_cache()
        explanation = sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"],
                                    explain=True)
        assert explanation.engine == "sql"  # nothing cached yet
        sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"])
        explanation = sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"],
                                    explain=True)
        assert explanation.engine == "cache"

    def test_explain_never_consumes_the_cache(self, store):
        _seed(store)
        cache = store.enable_result_cache()
        sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"])
        hits_before = cache.stats()["hits"]
        sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"], explain=True)
        assert cache.stats()["hits"] == hits_before

    def test_unoptimized_path_bypasses_cache(self, store):
        _seed(store)
        cache = store.enable_result_cache()
        sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"], optimize=False)
        assert cache.stats()["stores"] == 0

    def test_detach(self, store):
        _seed(store)
        store.enable_result_cache()
        store.attach_result_cache(None)
        assert store.result_cache is None
        sdo_rdf_match(store, "(?s <urn:p> ?o)", ["m"])  # no crash

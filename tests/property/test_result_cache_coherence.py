"""Property suite: the result cache NEVER serves a stale answer.

Each trial drives one seeded :class:`random.Random` through an
interleaving of writes (inserts, deletes, bulk loads, model drops and
recreates) and repeated queries against a cache-enabled store.  After
*every* operation, every query shape is answered twice — once through
the cache, once with the cache detached (raw SQL) — and the row sets
must agree exactly.  A single divergence is a coherence bug: the
version-keyed invalidation failed to notice a write.

The trials run on single-file in-memory stores, the in-process tier's
only home (the server tier's coherence is pinned over HTTP in
``tests/server/test_cache_serve.py``).  Across the default seeds this
exceeds 200 randomized interleavings, the suite's acceptance bar.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bulkload import bulk_load_ntriples
from repro.core.store import RDFStore
from repro.inference.match import sdo_rdf_match

MODEL = "coh"

#: Seeded trials, one interleaving each.
TRIALS = 210

#: Small closed universes so deletes and duplicate inserts hit.
_SUBJECTS = [f"<urn:s{i}>" for i in range(6)]
_PREDICATES = [f"<urn:p{i}>" for i in range(3)]
_OBJECTS = [f"<urn:o{i}>" for i in range(4)] + ['"lit0"', '"lit1"']

#: The query shapes every trial replays after every operation.
QUERY_SHAPES = [
    ("(?s ?p ?o)", {}),
    ("(?s <urn:p0> ?o)", {}),
    (f"({_SUBJECTS[0]} ?p ?o)", {}),
    ("(?s <urn:p1> ?o)", {"filter": '?o != "lit0"'}),
    ("(?s <urn:p0> ?o)", {"order_by": "o", "limit": 2}),
]


def _random_triple(rng: random.Random) -> tuple[str, str, str]:
    return (rng.choice(_SUBJECTS), rng.choice(_PREDICATES),
            rng.choice(_OBJECTS))


def _apply_write(store, rng: random.Random, tmp_path, step: int) -> str:
    """One random mutation; returns a label for failure messages."""
    choice = rng.random()
    if choice < 0.45:
        s, p, o = _random_triple(rng)
        store.insert_triple(MODEL, s, p, o)
        return f"insert {s} {p} {o}"
    if choice < 0.70:
        s, p, o = _random_triple(rng)
        store.remove_triple(MODEL, s, p, o, force=True)
        return f"delete {s} {p} {o}"
    if choice < 0.90:
        # A bulk load through the real staged loader.
        batch = [_random_triple(rng)
                 for _ in range(rng.randrange(2, 6))]
        path = tmp_path / f"bulk{step}.nt"
        path.write_text(
            "".join(f"{s} {p} {o} .\n" for s, p, o in batch),
            encoding="utf-8")
        bulk_load_ntriples(store, MODEL, str(path))
        return f"bulk_load x{len(batch)}"
    # Drop the whole model and recreate it empty — the heaviest
    # invalidation case (every cached row for it is now wrong).
    store.drop_model(MODEL)
    store.create_model(MODEL)
    return "drop_model + recreate"


def _rows(result) -> list[tuple]:
    return sorted(tuple(sorted(row.as_dict().items()))
                  for row in result)


def _check_coherence(store, context: str) -> int:
    """Every query shape: cached answer == cache-detached answer.

    Each shape runs through the cache twice — the first call fills or
    invalidates, the second must HIT (same version) — and both must
    equal the raw SQL answer with the cache detached.
    """
    cache = store.result_cache
    hits = 0
    for query, kwargs in QUERY_SHAPES:
        filled_rows = _rows(sdo_rdf_match(store, query, [MODEL], **kwargs))
        before = cache.hits
        cached_rows = _rows(sdo_rdf_match(store, query, [MODEL], **kwargs))
        hits += cache.hits - before
        store.attach_result_cache(None)
        try:
            raw_rows = _rows(sdo_rdf_match(store, query, [MODEL],
                                           **kwargs))
        finally:
            store.attach_result_cache(cache)
        assert filled_rows == cached_rows == raw_rows, (
            f"stale cache serve after {context}: query {query!r} "
            f"{kwargs} answered {len(cached_rows)} cached rows vs "
            f"{len(raw_rows)} raw")
    return hits


@pytest.mark.parametrize("seed", range(TRIALS))
def test_single_file_coherence(seed, tmp_path):
    rng = random.Random(10_000 + seed)
    with RDFStore() as store:
        store.enable_result_cache()
        store.create_model(MODEL)
        for _ in range(rng.randrange(2, 6)):
            store.insert_triple(MODEL, *_random_triple(rng))
        hits = _check_coherence(store, "seeding")
        for step in range(6):
            label = _apply_write(store, rng, tmp_path, step)
            hits += _check_coherence(store, f"step {step} ({label})")
        # The trial must actually exercise the cache, not just miss.
        assert hits > 0
        assert store.result_cache.stats()["invalidations"] > 0


def test_suite_exceeds_two_hundred_interleavings():
    """The acceptance bar: the seeded trials number at least 200."""
    assert TRIALS >= 200

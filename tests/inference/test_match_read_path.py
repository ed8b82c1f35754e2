"""The one read path of ``sdo_rdf_match``: the pieces written once.

Validation and the telemetry block each exist once and serve both
engines (SQL and the result cache), so one parametrised suite pins
that they agree — same rows, same error text, same EXPLAIN verdict —
and that every outcome of a query is counted exactly once.  The entry
poll lets the result cache and the plan cache see a second
connection's commits.
"""

import pytest

from repro.core.store import RDFStore
from repro.errors import QueryError
from repro.inference.match import sdo_rdf_match

MODEL = "m"
TRIPLES = [(f"<urn:s{i}>", "<urn:p>", f'"v{i % 3}"') for i in range(6)] \
    + [(f"<urn:s{i}>", "<urn:q>", f"<urn:s{i + 1}>") for i in range(5)]
#: Scans, an anchored lookup, a join, and filter / ORDER BY / LIMIT
#: post-processing.
QUERIES = [
    ("(?s <urn:p> ?o)", {}),
    ("(<urn:s2> ?p ?o)", {}),
    ("(?a <urn:q> ?b) (?b <urn:p> ?v)", {}),
    ("(?s <urn:p> ?o)", {"filter": '?o != "v0"'}),
    ("(?s <urn:p> ?o)", {"order_by": "?s", "limit": 4}),
    ("(?s <urn:unknown> ?o)", {}),
]
#: (label, query, models, kwargs) — one per validation failure.
BAD_CALLS = [
    ("no models", "(?s ?p ?o)", [], {}),
    ("negative limit", "(?s ?p ?o)", [MODEL], {"limit": -1}),
    ("filter on an unbound variable", "(?s <urn:p> ?o)", [MODEL],
     {"filter": '?ghost = "x"'}),
    ("order_by on an unbound variable", "(?s <urn:p> ?o)", [MODEL],
     {"order_by": "ghost"}),
]


def _open(tmp_path, name: str, cache: bool):
    store = RDFStore(str(tmp_path / f"{name}.db"), durability="durable")
    store.create_model(MODEL)
    for triple in TRIPLES:
        store.insert_triple(MODEL, *triple)
    if cache:
        store.enable_result_cache()
    return store


def _rows(store, query, **kwargs):
    return sorted(tuple(sorted(row.as_dict().items()))
                  for row in sdo_rdf_match(store, query, [MODEL],
                                           **kwargs))


def _error(store, query, models, kwargs) -> str:
    with pytest.raises(QueryError) as info:
        sdo_rdf_match(store, query, models, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("cache", [
    pytest.param(False, id="single-file-cache-off"),
    pytest.param(True, id="single-file-cache-on"),
])
def test_engines_agree(tmp_path, cache):
    with _open(tmp_path, "ref", False) as reference, \
            _open(tmp_path, "eng", cache) as engine:
        for query, kwargs in QUERIES:
            expected = _rows(reference, query, **kwargs)
            assert _rows(engine, query, **kwargs) == expected
            # Again: the second answer is the cached one when caching.
            assert _rows(engine, query, **kwargs) == expected
        for label, query, models, kwargs in BAD_CALLS:
            assert _error(engine, query, models, kwargs) == \
                _error(reference, query, models, kwargs), label
        anchored = QUERIES[1][0]
        verdict = sdo_rdf_match(engine, anchored, [MODEL],
                                explain=True).engine
        if cache:
            assert verdict == "cache"
            assert engine.result_cache.stats()["hits"] >= len(QUERIES)
        else:
            assert verdict == "sql"


@pytest.mark.parametrize("cache", [False, True],
                         ids=["cache-off", "cache-on"])
def test_every_outcome_is_counted_once(cache):
    """match.queries == count(match.rows) == count(match.patterns)
    after each of: SQL, result-cache hit, unknown-constant
    short-circuit, explain."""
    with RDFStore(observe=True) as store:
        store.create_model(MODEL)
        store.insert_triple(MODEL, *TRIPLES[0])
        if cache:
            store.enable_result_cache()

        def counts():
            metrics = store.observer.metrics.as_dict()
            return (metrics["counters"].get("match.queries", 0),
                    metrics["histograms"]["match.rows"]["count"],
                    metrics["histograms"]["match.patterns"]["count"])

        calls = [
            ("sql", "(?s <urn:p> ?o)", {}),
            ("repeat (cache hit when caching)", "(?s <urn:p> ?o)", {}),
            ("unknown constant", "(?s <urn:never-stored> ?o)", {}),
            ("explain", "(?s <urn:p> ?o)", {"explain": True}),
            ("naive", "(?s <urn:p> ?o)", {"optimize": False}),
        ]
        for done, (label, query, kwargs) in enumerate(calls, start=1):
            sdo_rdf_match(store, query, [MODEL], **kwargs)
            assert counts() == (done, done, done), label
        if cache:
            counters = store.observer.metrics.as_dict()["counters"]
            assert counters["match.result_cache_hits"] == 1


@pytest.mark.parametrize("cache", [False, True],
                         ids=["plan-cache", "result-cache"])
def test_second_store_commit_is_seen(tmp_path, cache):
    """Two stores on one file: B's commit reaches A's next match, whose
    plan (an unknown constant short-circuits to "impossible") or cached
    rows were computed before it."""
    path = str(tmp_path / "two.db")
    query = "(<urn:new> ?p ?o)"
    with RDFStore(path, durability="durable") as a, \
            RDFStore(path, durability="durable") as b:
        a.create_model(MODEL)
        if cache:
            a.enable_result_cache()
        assert sdo_rdf_match(a, query, [MODEL]) == []
        b.insert_triple(MODEL, "<urn:new>", "<urn:p>", "<urn:o1>")
        rows = sdo_rdf_match(a, query, [MODEL])
        assert [row.as_dict() for row in rows] == \
            [{"p": "urn:p", "o": "urn:o1"}]
        if cache:
            assert a.result_cache.stats()["invalidations"] == 1

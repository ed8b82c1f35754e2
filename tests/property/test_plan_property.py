"""Property test: the optimized planner (statistics-driven join order,
CTE dataset, filter/ORDER BY/LIMIT pushdown, plan cache) returns
exactly the rows of the naive textual-order compile."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import RDFStore
from repro.db.dburi import DBUri
from repro.inference.match import sdo_rdf_match
from repro.rdf.namespaces import Alias, AliasSet
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple

_NAMES = ["a", "b", "c"]
_LITERALS = ["42", "17", "abc", "a%c"]
_XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


def small_triples():
    names = st.sampled_from(_NAMES)
    objects = st.one_of(
        names.map(lambda n: URI(f"n:{n}")),
        st.sampled_from(_LITERALS).map(Literal))
    return st.builds(
        lambda s, p, o: Triple(URI(f"n:{s}"), URI(f"p:{p}"), o),
        names, names, objects)


def queries():
    """Random 1-3 pattern conjunctive queries over the tiny vocab."""
    variables = [f"?v{i}" for i in range(3)]
    subject = st.one_of(
        st.sampled_from(variables),
        st.sampled_from([f"n:{n}" for n in _NAMES]))
    predicate = st.one_of(
        st.sampled_from(variables),
        st.sampled_from([f"p:{n}" for n in _NAMES]))
    obj = st.one_of(
        st.sampled_from(variables),
        st.sampled_from([f"n:{n}" for n in _NAMES]),
        st.sampled_from([f'"{value}"' for value in _LITERALS]))
    pattern = st.builds(lambda s, p, o: f"({s} {p} {o})",
                        subject, predicate, obj)
    return st.lists(pattern, min_size=1, max_size=3).map(" ".join)


#: Typed literals sharing one canonical form, the reified statement's
#: DBUri (``{dburi}``, filled in per store) and a URI.
_BOUND_OBJECTS = ['"01"^^xsd:integer', '"1"^^xsd:integer', "<{dburi}>",
                  "n:a"]


def bound_object_queries():
    """2-3 pattern joins whose objects are bound: non-canonical typed
    literals, the provenance shape's DBUri, a URI."""
    pattern = st.builds(lambda s, p, o: f"({s} {p} {o})",
                        st.sampled_from(["?v0", "?v1", "n:curator"]),
                        st.sampled_from(["?v2", "p:a", "p:curatedBy"]),
                        st.sampled_from(_BOUND_OBJECTS))
    return st.lists(pattern, min_size=2, max_size=3).map(" ".join)


def _add_bound_objects(store, models):
    """Typed literals sharing one canonical form, and a reified
    statement with its provenance; returns the statement's DBUri."""
    for model in models:
        store.insert_triple(model, "n:a", "p:a", '"01"^^xsd:integer')
    store.insert_triple("m", "n:b", "p:a", '"1"^^xsd:integer')
    store.insert_triple("m", "n:c", "p:b", '"01"^^xsd:integer')
    link = store.insert_triple_obj("m", Triple(
        URI("n:a"), URI("p:b"), URI("n:c"))).rdf_t_id
    store.assert_about("m", "n:curator", "p:curatedBy", link)
    return DBUri.for_link(link).text


def filters():
    """Filters mixing pushable (string/LIKE) and residual (numeric)
    clauses over ?v0."""
    return st.sampled_from([
        None,
        '?v0 = "n:a"',
        '?v0 != "abc"',
        '?v0 LIKE "n:%"',
        '?v0 LIKE "a%"',
        "?v0 >= 18",
        '?v0 = "42"',
        '?v0 LIKE "n:%" AND ?v0 != "17"',
        '?v0 = "n:b" OR ?v0 >= 40',
    ])


def _rows_sorted(rows):
    return sorted(tuple(sorted(row.as_dict().items())) for row in rows)


def _built(triples, split_models=False):
    store = RDFStore()
    store.create_model("m")
    models = ["m"]
    if split_models:
        store.create_model("m2")
        models.append("m2")
    for index, triple in enumerate(triples):
        store.insert_triple_obj(models[index % len(models)], triple)
    return store, models


class TestPlannedMatchesNaive:
    @given(st.lists(small_triples(), max_size=25),
           st.one_of(queries(), bound_object_queries()), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_identical(self, triples, query, split_models):
        store, models = _built(triples, split_models)
        with store:
            query = query.replace("{dburi}",
                                  _add_bound_objects(store, models))
            naive = sdo_rdf_match(store, query, models, optimize=False)
            planned = sdo_rdf_match(store, query, models)
            cached = sdo_rdf_match(store, query, models)  # cache hit
            assert _rows_sorted(planned) == _rows_sorted(naive)
            assert _rows_sorted(cached) == _rows_sorted(naive)

    @given(st.lists(small_triples(), max_size=25), st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_shape_many_constants(self, triples, data):
        """Single-pattern queries of one shape share one cached plan,
        bound per call, whatever the constant: typed and tagged
        literals, alias qnames, DBUris, unknown terms, the same
        constant twice."""
        store, models = _built(triples)
        with store:
            typed = Literal("42", datatype=URI(_XSD_INTEGER))
            tagged = Literal("abc", language="en")
            for index, term in enumerate((typed, tagged)):
                store.insert_triple_obj("m", Triple(
                    URI(f"n:{_NAMES[index]}"), URI("p:tag"), term))
            link = store.insert_triple_obj("m", Triple(
                URI("n:a"), URI("p:a"), URI("n:b"))).rdf_t_id
            # The provenance probe: (?who <curatedBy> <DBUri>).
            store.assert_about("m", "n:curator", "p:curatedBy", link)
            aliases = AliasSet([Alias("al", "n:")])
            constants = data.draw(st.lists(st.sampled_from(
                [f"n:{name}" for name in _NAMES]
                + [f"al:{name}" for name in _NAMES]
                + [f'"{value}"' for value in _LITERALS]
                + [str(typed), '"42"^^xsd:integer', str(tagged),
                   f"<{DBUri.for_link(link).text}>",
                   f"<{DBUri.for_link(link + 999).text}>",
                   "n:unknown", "n:curator"]),
                min_size=1, max_size=12))
            shapes = ["({c} ?p ?o)", "(?s ?p {c})", "({c} ?p {c})"]
            for shape in shapes:
                for constant in constants:
                    query = shape.format(c=constant)
                    naive = sdo_rdf_match(store, query, models,
                                          aliases=aliases, optimize=False)
                    planned = sdo_rdf_match(store, query, models,
                                            aliases=aliases)
                    assert _rows_sorted(planned) == _rows_sorted(naive), \
                        query
            assert store.plan_cache.stats()["entries"] == len(shapes)

    @given(st.lists(small_triples(), max_size=25), filters())
    @settings(max_examples=60, deadline=None)
    def test_filters_agree(self, triples, filter_text):
        query = "(?v0 ?v1 ?v2)"
        store, models = _built(triples)
        with store:
            naive = sdo_rdf_match(store, query, models,
                                  filter=filter_text, optimize=False)
            planned = sdo_rdf_match(store, query, models,
                                    filter=filter_text)
            assert _rows_sorted(planned) == _rows_sorted(naive)

    @given(st.lists(small_triples(), max_size=25), queries(),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_order_and_limit_agree(self, triples, query, limit):
        store, models = _built(triples)
        with store:
            order_by = "v0" if "?v0" in query else None
            naive = sdo_rdf_match(store, query, models,
                                  order_by=order_by, limit=limit,
                                  optimize=False)
            planned = sdo_rdf_match(store, query, models,
                                    order_by=order_by, limit=limit)
            if order_by is not None:
                # Deterministic prefix: compare the ordered column.
                assert [row[order_by] for row in planned] == \
                    [row[order_by] for row in naive]
            assert len(planned) == len(naive)
            # Any limited result is a subset of the full result.
            full = sdo_rdf_match(store, query, models, optimize=False)
            assert set(planned) <= set(full)

    @given(st.lists(small_triples(), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_rulebase_queries_agree(self, triples):
        store, models = _built(triples)
        with store:
            from repro.inference.sdo_rdf_inference import (
                SDO_RDF_INFERENCE,
            )

            inference = SDO_RDF_INFERENCE(store)
            inference.create_rulebase("rb")
            inference.insert_rule("rb", "sym", "(?x p:a ?y)", None,
                                  "(?y p:a ?x)")
            inference.create_rules_index("idx", models, ["rb"])
            query = "(?v0 p:a ?v1)"
            naive = sdo_rdf_match(store, query, models,
                                  rulebases=["rb"], optimize=False)
            planned = sdo_rdf_match(store, query, models,
                                    rulebases=["rb"])
            assert _rows_sorted(planned) == _rows_sorted(naive)

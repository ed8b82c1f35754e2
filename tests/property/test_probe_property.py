"""The point probes answer as the term-at-a-time path does.

``find_link``, ``is_triple``, ``is_reified`` and ``is_reified_id`` key
VALUE_IDs on the caller's text and answer IS_REIFIED in one statement.
The reference below is the path they replaced: parse the three texts,
look each term's VALUE_ID up, probe the link, then look the DBUri's
VALUE_ID up and probe the reification statement.  On random stores —
blank nodes, long literals sharing a prefix, ``rdf:``-prefixed
spellings, literal and URI DBUris, removes that cascade — every probe,
cold and warm, gives the same answer or raises the same error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import RDFStore
from repro.db.dburi import DBUri
from repro.errors import ModelNotFoundError, TermError, TripleNotFoundError
from repro.rdf.namespaces import RDF
from repro.rdf.terms import URI
from repro.rdf.triple import Triple

_LONG = "x" * 4001
_TEXTS = st.sampled_from([
    "<urn:a>", "<urn:b>", "ex:c", "_:b1", "_:b2", "bombing",
    '"plain"', '"hello"@en',
    '"5"^^<http://www.w3.org/2001/XMLSchema#integer>',
    f'"{_LONG}"', f'"{_LONG}y"',
    "rdf:type", f"<{RDF.type.value}>", "<rdf:type>", "rdf:Statement",
    '"/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]"',
    "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]",
    "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=2]",
])
_SUBJECTS = st.sampled_from([
    "<urn:a>", "ex:c", "_:b1", "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]"])
_PREDICATES = st.sampled_from([
    "<urn:p>", "ex:q", "rdf:type", f"<{RDF.type.value}>", "<rdf:type>"])
_MODELS = st.sampled_from(["m", "n"])
_LINK_IDS = st.integers(0, 6)

_ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _MODELS, _SUBJECTS, _PREDICATES,
              _TEXTS),
    st.tuples(st.just("reify"), _MODELS, _LINK_IDS),
    # Reify the link of the i-th successful insert, in its own model.
    st.tuples(st.just("reify_inserted"), st.integers(0, 23)),
    # A reification statement written as text, in one of the spellings
    # of rdf:type / rdf:Statement (only the expanded ones reify).
    st.tuples(st.just("spell"), _MODELS, _LINK_IDS,
              st.sampled_from(["rdf:type", "<rdf:type>",
                               f"<{RDF.type.value}>"]),
              st.sampled_from(["rdf:Statement", "<rdf:Statement>"])),
    st.tuples(st.just("remove"), _MODELS, _TEXTS, _TEXTS, _TEXTS),
), max_size=24)

_PROBE_MODELS = st.sampled_from(["m", "n", "zz"])
_PROBES = st.lists(st.one_of(
    st.tuples(st.just("triple"), _PROBE_MODELS, _TEXTS, _TEXTS, _TEXTS),
    # The model and texts of the i-th insert (mod their number).
    st.tuples(st.just("echo"), st.integers(0, 23)),
    st.tuples(st.just("link"), _PROBE_MODELS, _LINK_IDS),
), min_size=1, max_size=12)


def _reference_find_link(store, model, texts):
    info = store.models.get(model)
    triple = Triple.from_text(*texts)
    ids = [store.values.find_id(term) for term in triple]
    if None in ids:
        return None
    return store.links.find(info.model_id, *ids)


def _reference_is_reified_id(store, model, link_id):
    info = store.models.get(model)
    ids = [store.values.find_id(URI(DBUri.for_link(link_id).text)),
           store.values.find_id(RDF.type),
           store.values.find_id(RDF.Statement)]
    if None in ids:
        return False
    return store.links.find(info.model_id, *ids) is not None


def _reference_is_reified(store, model, texts):
    link = _reference_find_link(store, model, texts)
    return link is not None and \
        _reference_is_reified_id(store, model, link.link_id)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (ModelNotFoundError, TermError) as exc:
        return type(exc).__name__, str(exc)


def _build(store, actions):
    store.create_model("m")
    store.create_model("n")
    handles = []
    for action in actions:
        kind, model = action[0], action[1]
        try:
            if kind == "insert":
                handles.append(
                    (model, store.insert_triple(model, *action[2:])))
            elif kind == "reify_inserted":
                if handles:
                    model, handle = handles[action[1] % len(handles)]
                    store.reify_triple(model, handle.rdf_t_id)
            elif kind == "reify":
                store.reify_triple(model, action[2])
            elif kind == "spell":
                store.insert_triple(
                    model, DBUri.for_link(action[2]).text, *action[3:])
            else:
                store.remove_triple(model, *action[2:], force=True)
        except (TermError, TripleNotFoundError):
            pass


@given(_ACTIONS, _PROBES)
@settings(max_examples=60, deadline=None)
def test_probes_answer_as_the_term_path(actions, probes):
    with RDFStore() as store:
        _build(store, actions)
        inserted = [action[1:] for action in actions
                    if action[0] == "insert"]
        # Twice: the first round fills the text map, the second hits it.
        for _ in range(2):
            for probe in probes:
                if probe[0] == "link":
                    model, link_id = probe[1:]
                    assert _outcome(store.is_reified_id, model, link_id) \
                        == _outcome(_reference_is_reified_id, store,
                                    model, link_id)
                    continue
                if probe[0] == "echo":
                    if not inserted:
                        continue
                    model, *texts = inserted[probe[1] % len(inserted)]
                else:
                    model, texts = probe[1], probe[2:]
                expected = _outcome(_reference_find_link, store, model,
                                    texts)
                assert _outcome(store.find_link, model, *texts) == \
                    expected
                found = (expected[0], expected[1] is not None) \
                    if expected[0] == "ok" else expected
                assert _outcome(store.is_triple, model, *texts) == found
                assert _outcome(store.is_reified, model, *texts) == \
                    _outcome(_reference_is_reified, store, model, texts)

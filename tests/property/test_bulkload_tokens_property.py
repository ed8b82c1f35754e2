"""Differential property: the N-Triples token path of the bulk loader
(``load_stream``) stores exactly what the term path
(``load(list(parse_ntriples(doc)))``) stores, or raises the same
ParseError at the same line."""

import io
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import bulkload
from repro.core.bulkload import STAGE_TABLE, STAGE_VALUE_TABLE, BulkLoader
from repro.core.integrity import check_integrity
from repro.core.store import RDFStore
from repro.errors import ParseError
from repro.rdf.ntriples import parse_ntriples, term_to_ntriples
from repro.rdf.terms import Literal

_XSD = "http://www.w3.org/2001/XMLSchema#"
_DBURI = "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=1]"

# Spellings, several of one term: an escape and its character, a
# language tag in two cases, two integers with one canonical form.
SUBJECTS = [
    "<urn:s1>", "<urn:s\\u0031>", "<urn:s2>", "_:b1", "_:b.2",
    f"<{_DBURI}>",              # DBUri text as a URI
    "<urn:a\\\\b>",             # a URI holding a backslash
]
PREDICATES = [
    "<urn:p1>", "<urn:p\\u0031>", "<urn:p2>", "<rdf:_1>",
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>",
]
OBJECTS = SUBJECTS + [
    '"plain"', '"a\\"q\\\\b"', '"caf\\u00e9"', '"café"',
    '"\\U0001F600"', '"\U0001F600"', '"tab\\there"',
    '"q\\" . # q"',             # a statement's end, quoted
    '"x"@en', '"x"@EN', '"x"@en-US',
    f'"007"^^<{_XSD}integer>', f'"7"^^<{_XSD}integer>',
    f'"1.50"^^<{_XSD}decimal>', f'"1"^^<{_XSD}boolean>',
    f'"{_DBURI}"',              # DBUri text as a literal
    f'"{_DBURI}\\n"',           # ... with a newline after it
]
# Spellings that are no term: a label ending in a dot, a Unicode
# label, an unknown escape.
BAD_NODES = ["_:b1.", "_:bé", "<urn:a\\b>"]
SEPARATORS = [" "] * 5 + ["\t", "  \t", ""]
TERMINATORS = [" .", ".", "\t.", " . # note", " .#c"]
LINE_ENDS = ["\n", "\n", "\r\n"]
OTHER_LINES = ["# a comment", "", "   ", "\t"]
MALFORMED = [
    "broken line", "<urn:s> <urn:p> .", '"lit" <urn:p> <urn:o> .',
    "<urn:s> <urn:p> <urn:o>", "<urn:s>\x0c<urn:p> <urn:o> .",
    "<urn:s> <urn:p> <urn:o> . trailing", '<urn:s> <urn:p> "x"@ .',
    "<urn:s> _:p <urn:o> .",
]


def statements(subjects, objects):
    return st.builds(
        lambda s, p, o, gaps, end: s + gaps[0] + p + gaps[1] + o + end,
        subjects, st.sampled_from(PREDICATES), objects,
        st.tuples(st.sampled_from(SEPARATORS),
                  st.sampled_from(SEPARATORS)),
        st.sampled_from(TERMINATORS))


def documents():
    """Good lines, and at most one bad line among them."""
    good = statements(
        st.sampled_from(SUBJECTS),
        st.one_of(st.sampled_from(OBJECTS),
                  st.builds(lambda text: term_to_ntriples(Literal(text)),
                            st.text(max_size=12))))
    lines = st.lists(st.one_of(good, good, good,
                               st.sampled_from(OTHER_LINES)),
                     max_size=25)
    bad = st.one_of(
        st.none(), st.none(), st.none(), st.sampled_from(MALFORMED),
        statements(st.sampled_from(SUBJECTS + BAD_NODES),
                   st.sampled_from(BAD_NODES)),
        statements(st.sampled_from(BAD_NODES),
                   st.sampled_from(OBJECTS)))
    return st.builds(_document, lines, bad, st.integers(0, 25),
                     st.lists(st.sampled_from(LINE_ENDS), min_size=26,
                              max_size=26))


def _document(lines, bad, at, ends):
    if bad is not None:
        lines = lines[:at] + [bad] + lines[at:]
    return "".join(line + end for line, end in zip(lines, ends))


def _tables(store):
    db = store.database
    return {table: [tuple(row) for row in db.query_all(
                f'SELECT * FROM "{table}" ORDER BY 1, 2')]
            for table in ("rdf_value$", "rdf_link$", "rdf_node$",
                          "rdf_blank_node$")}


def _load(document, tokens, bound):
    with mock.patch.object(bulkload, "KEY_MAP_BOUND", bound), \
            RDFStore() as store:
        store.create_model("m")
        loader = BulkLoader(store, "m", batch_size=3)
        try:
            if tokens:
                report = loader.load_stream(io.StringIO(document))
            else:
                report = loader.load(list(parse_ntriples(document)))
        except ParseError as exc:
            db = store.database
            assert [db.row_count(table) for table in (
                "rdf_link$", STAGE_TABLE, STAGE_VALUE_TABLE)] == [0, 0, 0]
            return ("error", str(exc), exc.line)
        assert check_integrity(store) == []
        return ("stored", report, _tables(store))


class TestTokenPathMatchesTermPath:
    @given(documents(), st.sampled_from([5, bulkload.KEY_MAP_BOUND]))
    # Lines whose tokens the pattern must cut exactly where the scanner
    # does, or decline.
    @example("_:b1. <urn:p1> <urn:o> .\n", 5)
    @example('"lit" <urn:p1> <urn:o> .\n', 5)
    @example('<urn:s1> <urn:p1> "q\\" . # q" .\n', 5)
    @example("<urn:s1> <urn:p1> <urn:a\\b> .\n", 5)
    @example("<urn:a\\\\b><urn:p1><urn:o>.\n"
             "<urn:s1> <urn:p1> <urn:a\\\\b> .\n", 5)
    @settings(max_examples=150, deadline=None)
    def test_same_rows_or_same_error(self, document, bound):
        assert _load(document, True, bound) == \
            _load(document, False, bound)

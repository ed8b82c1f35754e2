"""Tests for the N-Triples parser/serializer (repro.rdf.ntriples)."""

import io

import pytest

from repro.errors import ParseError
from repro.rdf.ntriples import (
    StatementTokens,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
    term_to_ntriples,
    term_token,
)
from repro.rdf.terms import BlankNode, Literal, URI
from repro.rdf.triple import Triple


class TestParseLine:
    def test_uri_triple(self):
        triple = parse_ntriples_line(
            "<urn:s> <urn:p> <urn:o> .")
        assert triple == Triple(URI("urn:s"), URI("urn:p"), URI("urn:o"))

    def test_blank_subject(self):
        triple = parse_ntriples_line("_:b1 <urn:p> <urn:o> .")
        assert triple.subject == BlankNode("b1")

    def test_plain_literal_object(self):
        triple = parse_ntriples_line('<urn:s> <urn:p> "hello" .')
        assert triple.object == Literal("hello")

    def test_language_literal(self):
        triple = parse_ntriples_line('<urn:s> <urn:p> "salut"@fr .')
        assert triple.object == Literal("salut", language="fr")

    def test_typed_literal(self):
        triple = parse_ntriples_line(
            '<urn:s> <urn:p> "25"^^'
            "<http://www.w3.org/2001/XMLSchema#int> .")
        assert triple.object.datatype.value.endswith("#int")

    def test_escapes_in_literal(self):
        triple = parse_ntriples_line(
            '<urn:s> <urn:p> "line1\\nline2\\t\\"q\\"" .')
        assert triple.object == Literal('line1\nline2\t"q"')

    def test_unicode_escape(self):
        triple = parse_ntriples_line('<urn:s> <urn:p> "\\u00e9" .')
        assert triple.object == Literal("é")

    def test_escaped_backslash_before_closing_quote(self):
        triple = parse_ntriples_line('<urn:s> <urn:p> "a\\\\" .')
        assert triple.object == Literal("a\\")

    def test_quoted_terminator_is_literal_text(self):
        triple = parse_ntriples_line('<urn:s> <urn:p> "q\\" . # q" .')
        assert triple.object == Literal('q" . # q')

    def test_trailing_comment_allowed(self):
        triple = parse_ntriples_line("<urn:s> <urn:p> <urn:o> . # note")
        assert triple.predicate == URI("urn:p")

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<urn:s> <urn:p> <urn:o>")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<urn:s> <urn:p> <urn:o> . garbage")

    def test_unterminated_uri(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<urn:s <urn:p> <urn:o> .")

    def test_unterminated_literal(self):
        with pytest.raises(ParseError):
            parse_ntriples_line('<urn:s> <urn:p> "open .')

    def test_literal_subject_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples_line('"lit" <urn:p> <urn:o> .')

    def test_blank_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<urn:s> _:b <urn:o> .")

    def test_too_few_terms(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<urn:s> <urn:p> .")


class TestParseDocument:
    DOC = """\
# a comment
<urn:s1> <urn:p> <urn:o1> .

<urn:s2> <urn:p> "v" .
"""

    def test_from_string(self):
        triples = list(parse_ntriples(self.DOC))
        assert len(triples) == 2

    def test_from_stream(self):
        triples = list(parse_ntriples(io.StringIO(self.DOC)))
        assert len(triples) == 2

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            list(parse_ntriples("<urn:s> <urn:p> <urn:o> .\nbad line .\n"))
        assert excinfo.value.line == 2

    def test_empty_document(self):
        assert list(parse_ntriples("")) == []


class TestSerialize:
    def test_term_spelling(self):
        assert term_to_ntriples(URI("urn:s")) == "<urn:s>"
        assert term_to_ntriples(BlankNode("b1")) == "_:b1"
        assert term_to_ntriples(Literal("v")) == '"v"'
        assert term_to_ntriples(Literal("v", language="en")) == '"v"@en'
        typed = Literal("1", datatype=URI("urn:t"))
        assert term_to_ntriples(typed) == '"1"^^<urn:t>'

    def test_escaping(self):
        assert term_to_ntriples(Literal('a"b\n')) == '"a\\"b\\n"'

    def test_roundtrip(self):
        triples = [
            Triple(URI("urn:s"), URI("urn:p"), Literal('x "y"\nz')),
            Triple(BlankNode("b"), URI("urn:p"),
                   Literal("1", datatype=URI("urn:t"))),
            Triple(URI("urn:s"), URI("urn:p"), Literal("fr", language="fr")),
        ]
        document = serialize_ntriples(triples)
        assert list(parse_ntriples(document)) == triples

    def test_serialize_to_stream(self):
        out = io.StringIO()
        result = serialize_ntriples(
            [Triple(URI("urn:s"), URI("urn:p"), URI("urn:o"))], out=out)
        assert result is None
        assert out.getvalue() == "<urn:s> <urn:p> <urn:o> .\n"


class TestStatementTokens:
    def test_tokens_of_each_statement(self):
        document = ('# comment\n\n<urn:s>\t<urn:p>  "v"@en .  # note\r\n'
                    '_:b1 <urn:p> _:b2.\n')
        assert list(StatementTokens(document)) == [
            ("<urn:s>", "<urn:p>", '"v"@en'),
            ("_:b1", "<urn:p>", "_:b2"),
        ]

    def test_line_the_pattern_declines_yields_term_tokens(self):
        document = "<urn:s><urn:p\\u0041>\"x\"^^<urn:t>.\n"
        assert list(StatementTokens(document)) == [
            ("<urn:s>", "<urn:pA>", '"x"^^<urn:t>')]

    def test_term_reads_a_token(self):
        tokens = StatementTokens("")
        assert tokens.term('"caf\\u00e9"@FR') == Literal("café",
                                                         language="fr")
        assert tokens.term("_:b1") == BlankNode("b1")

    def test_bad_token_raises_its_lines_error(self):
        document = "<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> <bad uri> .\n"
        with pytest.raises(ParseError) as expected:
            list(parse_ntriples(document))
        tokens = StatementTokens(document)
        with pytest.raises(ParseError) as raised:
            for statement in tokens:
                for token in statement:
                    tokens.term(token)
        assert raised.value.line == expected.value.line == 2
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("term", [
        URI("urn:a\\b"), URI("urn:a>b"), URI("urn:plain"),
        BlankNode("b1"), Literal('a"b\\c\n'), Literal("x", language="en"),
        Literal("7", datatype=URI("urn:t")),
    ])
    def test_term_token_reads_back(self, term):
        assert StatementTokens("").term(term_token(term)) == term

"""N-Triples parsing and serialization.

N-Triples is the line-oriented exchange syntax the loaders use: one triple
per line, terms in angle brackets / ``_:`` / quoted form, terminated by a
full stop.  The reification-quad loader (:mod:`repro.reification.quads`)
reads quads from N-Triples files, and the workload generators emit it.
The bulk loader reads it as raw tokens (:class:`StatementTokens`), so a
term spelled a thousand times is parsed once.
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, Iterator

from repro.errors import ParseError, TermError
from repro.rdf.terms import (
    BlankNode,
    Literal,
    RDFTerm,
    URI,
    _unescape,
)
from repro.rdf.triple import Triple


def parse_ntriples(source: str | IO[str]) -> Iterator[Triple]:
    """Parse an N-Triples document (string or text stream) lazily.

    Blank lines and ``#`` comment lines are skipped.  Raises
    :class:`repro.errors.ParseError` with a line number on bad input.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        yield _parse_numbered(line, line_number)


def _parse_numbered(line: str, line_number: int) -> Triple:
    """:func:`parse_ntriples_line`, its errors tagged with the line."""
    try:
        return parse_ntriples_line(line)
    except (ParseError, TermError) as exc:
        raise ParseError(str(exc), line=line_number) from exc


def parse_ntriples_line(line: str) -> Triple:
    """Parse one N-Triples statement line into a :class:`Triple`."""
    scanner = _Scanner(line)
    try:
        subject = scanner.read_term()
        predicate = scanner.read_term()
        obj = scanner.read_term()
    except TermError as exc:
        raise ParseError(f"{exc} in {line!r}") from exc
    scanner.expect_terminator()
    if isinstance(subject, Literal):
        raise ParseError(f"literal subject in {line!r}")
    if not isinstance(predicate, URI):
        raise ParseError(f"non-URI predicate in {line!r}")
    return Triple(subject, predicate, obj)


# A quoted literal: up to the first quote no backslash escapes.
_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_QUOTED_RE = re.compile(_QUOTED, re.DOTALL)


class _Scanner:
    """A tiny cursor-based scanner over one N-Triples line."""

    def __init__(self, line: str) -> None:
        self.line = line
        self.pos = 0

    def _skip_whitespace(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def read_term(self) -> RDFTerm:
        self._skip_whitespace()
        if self.pos >= len(self.line):
            raise ParseError(f"unexpected end of line in {self.line!r}",
                             column=self.pos)
        ch = self.line[self.pos]
        if ch == "<":
            return self._read_uri()
        if ch == "_":
            return self._read_blank_node()
        if ch == '"':
            return self._read_literal()
        raise ParseError(
            f"unexpected character {ch!r} at column {self.pos} "
            f"in {self.line!r}", column=self.pos)

    def _read_uri(self) -> URI:
        end = self.line.find(">", self.pos)
        if end == -1:
            raise ParseError(f"unterminated URI in {self.line!r}",
                             column=self.pos)
        value = self.line[self.pos + 1:end]
        self.pos = end + 1
        return URI(_unescape(value))

    def _read_blank_node(self) -> BlankNode:
        start = self.pos
        if not self.line.startswith("_:", start):
            raise ParseError(f"malformed blank node in {self.line!r}",
                             column=start)
        end = start + 2
        while end < len(self.line) and (self.line[end].isalnum()
                                        or self.line[end] in "._-"):
            end += 1
        # A trailing dot is the statement terminator, not label text.
        while end > start + 2 and self.line[end - 1] == ".":
            end -= 1
        label = self.line[start:end]
        self.pos = end
        return BlankNode(label)

    def _read_literal(self) -> Literal:
        quoted = _QUOTED_RE.match(self.line, self.pos)
        if quoted is None:
            raise ParseError(f"unterminated literal in {self.line!r}",
                             column=self.pos)
        body = _unescape(quoted.group()[1:-1])
        self.pos = quoted.end()
        if self.line.startswith("@", self.pos):
            tag_end = self.pos + 1
            while (tag_end < len(self.line)
                   and self.line[tag_end] not in " \t."):
                tag_end += 1
            language = self.line[self.pos + 1:tag_end]
            self.pos = tag_end
            return Literal(body, language=language)
        if self.line.startswith("^^<", self.pos):
            dt_end = self.line.find(">", self.pos + 3)
            if dt_end == -1:
                raise ParseError(
                    f"unterminated datatype URI in {self.line!r}",
                    column=self.pos)
            datatype = URI(self.line[self.pos + 3:dt_end])
            self.pos = dt_end + 1
            return Literal(body, datatype=datatype)
        return Literal(body)

    def expect_terminator(self) -> None:
        self._skip_whitespace()
        if self.pos >= len(self.line) or self.line[self.pos] != ".":
            raise ParseError(f"missing '.' terminator in {self.line!r}",
                             column=self.pos)
        trailing = self.line[self.pos + 1:].strip()
        if trailing and not trailing.startswith("#"):
            raise ParseError(
                f"trailing content {trailing!r} in {self.line!r}",
                column=self.pos + 1)


# One stripped statement line as its three raw tokens, cut where
# _Scanner cuts them: a URI ends at its first '>', a literal at its
# first unescaped quote, a language tag at a blank or the final dot,
# and a blank-node label never ends in a dot.  Only blanks and tabs
# separate terms.  A line this does not take (no blank between terms,
# a Unicode label, other whitespace, bad input) is parse_ntriples_line's.
_URI_TOKEN = "<[^>]*>"
_BLANK_TOKEN = r"_:[A-Za-z0-9_-](?:[A-Za-z0-9._-]*[A-Za-z0-9_-])?"
_LITERAL_TOKEN = _QUOTED + r"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?"
_STATEMENT_RE = re.compile(
    rf"({_URI_TOKEN}|{_BLANK_TOKEN})[ \t]+({_URI_TOKEN})[ \t]+"
    rf"({_URI_TOKEN}|{_BLANK_TOKEN}|{_LITERAL_TOKEN})[ \t]*\."
    r"(?:[ \t]*#.*)?")


class StatementTokens:
    """An N-Triples document as the raw tokens of its statements.

    Iterating yields one ``(subject, predicate, object)`` tuple of
    token strings per statement, and :meth:`term` reads a token with
    the scanner's own :meth:`_Scanner.read_term`.  A loader that keys
    terms on their tokens thus reads each distinct spelling once, not
    each occurrence.  A line the statement pattern does not take is
    parsed by :func:`parse_ntriples_line` and yields its terms'
    :func:`term_token` spellings.  Bad input raises the
    :class:`ParseError` :func:`parse_ntriples` raises, line included.
    """

    def __init__(self, source: str | IO[str]) -> None:
        self._stream = (io.StringIO(source) if isinstance(source, str)
                        else source)
        self._at = ("", 0)

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        statement = _STATEMENT_RE.fullmatch
        for line_number, raw_line in enumerate(self._stream, start=1):
            line = raw_line.strip()
            if not line or line[0] == "#":
                continue
            match = statement(line)
            if match is None:
                yield tuple(map(term_token,
                                _parse_numbered(line, line_number)))
            else:
                self._at = (line, line_number)
                yield match.groups()

    def term(self, token: str) -> RDFTerm:
        """The term ``token`` denotes.  A token of the latest statement
        that denotes none raises that line's own :class:`ParseError`."""
        try:
            return _Scanner(token).read_term()
        except (ParseError, TermError) as exc:
            line, line_number = self._at
            # Raises: the pattern cuts a line where the scanner does.
            _parse_numbered(line, line_number)
            raise ParseError(str(exc), line=line_number) from exc


def term_token(term: RDFTerm) -> str:
    """The token :meth:`StatementTokens.term` reads back as ``term``.

    That is :func:`term_to_ntriples`, except that a URI's backslashes
    and '>' are written as ``\\u`` escapes: a URI token is unescaped
    when read and ends at its first '>'.
    """
    if isinstance(term, URI) and ("\\" in term.value or ">" in term.value):
        return "<" + term.value.replace("\\", "\\u005C").replace(
            ">", "\\u003E") + ">"
    return term_to_ntriples(term)


def term_to_ntriples(term: RDFTerm) -> str:
    """The N-Triples spelling of one term."""
    if isinstance(term, URI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return term.lexical
    assert isinstance(term, Literal)
    body = _escape(term.lexical_form)
    if term.datatype is not None:
        return f'"{body}"^^<{term.datatype.value}>'
    if term.language is not None:
        return f'"{body}"@{term.language}'
    return f'"{body}"'


def serialize_ntriples(triples: Iterable[Triple],
                       out: IO[str] | None = None) -> str | None:
    """Serialize triples to N-Triples.

    With ``out`` given, writes to the stream and returns None; otherwise
    returns the document as a string.
    """
    buffer = out if out is not None else io.StringIO()
    for triple in triples:
        buffer.write(
            f"{term_to_ntriples(triple.subject)} "
            f"{term_to_ntriples(triple.predicate)} "
            f"{term_to_ntriples(triple.object)} .\n")
    if out is not None:
        return None
    assert isinstance(buffer, io.StringIO)
    return buffer.getvalue()


def _escape(text: str) -> str:
    """Apply the N-Triples backslash escapes to a literal body."""
    return (text.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
                .replace("\r", "\\r")
                .replace("\t", "\\t"))

"""The triple-pattern language of SDO_RDF_MATCH and rulebases.

The paper's queries and rules write graph patterns as parenthesised
triples with ``?var`` variables::

    (gov:files gov:terrorSuspect ?name)
    (?x gov:terrorAction "bombing") (?x rdf:type gov:Person)

A pattern component is a variable, a URI / prefixed name, or a literal.
Prefixed names are expanded through the supplied
:class:`repro.rdf.namespaces.AliasSet`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import QueryError
from repro.rdf.namespaces import AliasSet
from repro.rdf.terms import RDFTerm, TermError, parse_term_text
from repro.rdf.triple import Triple


@dataclass(frozen=True, slots=True)
class Variable:
    """A query variable ``?name``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise QueryError(f"illegal variable name {self.name!r}")

    def __str__(self) -> str:
        return f"?{self.name}"


PatternComponent = Union[Variable, RDFTerm]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One parenthesised triple pattern."""

    subject: PatternComponent
    predicate: PatternComponent
    object: PatternComponent

    def components(self) -> Iterator[PatternComponent]:
        yield self.subject
        yield self.predicate
        yield self.object

    def variables(self) -> set[str]:
        """Names of the variables this pattern binds."""
        return {component.name for component in self.components()
                if isinstance(component, Variable)}

    def is_ground(self) -> bool:
        """True when the pattern has no variables."""
        return not self.variables()

    def substitute(self, bindings: dict[str, RDFTerm]) -> Triple:
        """Instantiate the pattern under ``bindings`` into a triple.

        All variables must be bound; raises QueryError otherwise.
        """
        resolved = []
        for component in self.components():
            if isinstance(component, Variable):
                term = bindings.get(component.name)
                if term is None:
                    raise QueryError(
                        f"unbound variable {component} in consequent")
                resolved.append(term)
            else:
                resolved.append(component)
        subject, predicate, obj = resolved
        try:
            return Triple(subject, predicate, obj)  # type: ignore[arg-type]
        except TermError as exc:
            raise QueryError(str(exc)) from exc

    def __str__(self) -> str:
        return f"({self.subject} {self.predicate} {self.object})"


def unify(pattern: TriplePattern, triple: Triple,
          bindings: dict[str, RDFTerm] | None = None
          ) -> dict[str, RDFTerm] | None:
    """Bindings making ``pattern`` match ``triple``, or None.

    Starts from ``bindings`` (not mutated) and extends it; returns None
    on a constant mismatch or a variable clash.  The workhorse of the
    incremental rules-index engine: anchoring a rule antecedent at a
    delta triple, and anchoring a consequent at a triple to re-derive.
    """
    result = dict(bindings) if bindings else {}
    for component, term in zip(pattern.components(), triple):
        if isinstance(component, Variable):
            existing = result.get(component.name)
            if existing is None:
                result[component.name] = term
            elif existing != term:
                return None
        elif component != term:
            return None
    return result


#: One component token: quoted literals (with any ``@lang`` or
#: ``^^type`` tail), IRIs in angle brackets and bare characters, glued
#: together up to whitespace or a parenthesis.  Each alternative starts
#: with a character no other one can, and bare text goes one character
#: per repetition, so a failed match backtracks in linear time.
_TERM = r'(?:[^\s()"<]|"(?:[^"\\]|\\.)*"|<[^<>\s]*>)+'
#: The tokenizer: one parenthesised triple pattern per match, its three
#: component tokens captured.
_PATTERN = re.compile(
    rf'\s*\(\s*({_TERM})\s+({_TERM})\s+({_TERM})\s*\)\s*')
#: Error path only: one token per match, to say what went wrong.
_TOKEN = re.compile(rf'\s*(?:({_TERM})|([()])|(\S))')


def scan_patterns(text: str) -> list[tuple[str, str, str]]:
    """The component tokens of each pattern in ``text``, in order.

    The one tokenizer of the pattern language: the parser and the plan
    cache's key both read queries through it, so they cannot disagree
    about what a token is.  Text it does not fully consume raises
    :class:`~repro.errors.QueryError`.
    """
    groups: list[tuple[str, str, str]] = []
    match = _PATTERN.match
    position, end = 0, len(text)
    while position < end:
        found = match(text, position)
        if found is None:
            raise QueryError(_diagnose(text, position))
        groups.append(found.groups())
        position = found.end()
    if not groups:
        raise QueryError(f"no triple patterns in {text!r}")
    return groups


def _diagnose(text: str, position: int) -> str:
    """Why the pattern starting at ``position`` does not scan."""
    tokens = []
    for found in _TOKEN.finditer(text, position):
        term, paren, other = found.groups()
        if other == '"':
            return f"unterminated literal in {text!r}"
        if other is not None:
            return f"unexpected {other!r} in {text!r}"
        if not tokens and paren != "(":
            if paren == ")":
                return f"unbalanced ')' in {text!r}"
            return f"unexpected {term!r} outside parentheses in {text!r}"
        if paren == ")":
            return (f"a triple pattern needs 3 components, got "
                    f"{len(tokens) - 1} in {text!r}")
        if paren == "(" and tokens:
            return f"unexpected '(' in {text!r}"
        tokens.append(term or paren)
    if not tokens:
        return f"no triple patterns in {text!r}"
    return f"unbalanced '(' in {text!r}"


def parse_pattern_list(text: str,
                       aliases: AliasSet | None = None
                       ) -> list[TriplePattern]:
    """Parse a whitespace-separated list of parenthesised patterns."""
    if aliases is None:
        aliases = AliasSet()
    return [TriplePattern(*(parse_component(token, aliases)
                            for token in tokens))
            for tokens in scan_patterns(text)]


def parse_component(token: str, aliases: AliasSet) -> PatternComponent:
    """One component token: a variable, or a term with prefixes
    expanded through ``aliases``."""
    if token.startswith("?"):
        return Variable(token[1:])
    expanded = aliases.expand(token)
    try:
        return parse_term_text(expanded)
    except TermError as exc:
        raise QueryError(
            f"bad pattern component {token!r}: {exc}") from exc

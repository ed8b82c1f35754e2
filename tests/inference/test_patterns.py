"""Tests for the triple-pattern language (repro.inference.patterns)."""

import pytest

from repro.errors import QueryError
from repro.inference.patterns import (
    TriplePattern,
    Variable,
    parse_pattern_list,
)
from repro.rdf.namespaces import aliases
from repro.rdf.terms import Literal, URI


class TestVariable:
    def test_name(self):
        assert Variable("x").name == "x"
        assert str(Variable("name")) == "?name"

    def test_underscore_allowed(self):
        assert Variable("my_var").name == "my_var"

    @pytest.mark.parametrize("bad", ["", "a b", "x!"])
    def test_illegal_names(self, bad):
        with pytest.raises(QueryError):
            Variable(bad)


class TestParsing:
    def test_single_pattern(self):
        patterns = parse_pattern_list(
            "(gov:files gov:terrorSuspect ?name)")
        assert len(patterns) == 1
        pattern = patterns[0]
        assert pattern.subject == URI("gov:files")
        assert pattern.predicate == URI("gov:terrorSuspect")
        assert pattern.object == Variable("name")

    def test_multiple_patterns(self):
        patterns = parse_pattern_list("(?x p:a ?y) (?y p:b ?z)")
        assert len(patterns) == 2

    def test_quoted_literal_component(self):
        patterns = parse_pattern_list('(?x gov:terrorAction "bombing")')
        assert patterns[0].object == Literal("bombing")

    def test_literal_with_space(self):
        patterns = parse_pattern_list('(?x p:said "hello world")')
        assert patterns[0].object == Literal("hello world")

    def test_alias_expansion(self):
        alias_set = aliases(("gov", "http://www.us.gov#"))
        patterns = parse_pattern_list("(gov:files gov:terrorSuspect ?n)",
                                      alias_set)
        assert patterns[0].subject == URI("http://www.us.gov#files")

    def test_builtin_alias_expansion(self):
        patterns = parse_pattern_list("(?x rdf:type ?c)")
        assert patterns[0].predicate.value.endswith(
            "22-rdf-syntax-ns#type")

    def test_variable_in_predicate_position(self):
        patterns = parse_pattern_list("(?s ?p ?o)")
        assert patterns[0].predicate == Variable("p")

    @pytest.mark.parametrize("bad", [
        "",
        "no parens at all",
        "(a b)",
        "(a b c d)",
        "(a b c",
        "a b c)",
        '(?x p:a "unterminated)',
        # Must fail in linear time, not by exponential backtracking.
        pytest.param("(" + "a" * 50_000, id="long-unclosed"),
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_pattern_list(bad)


class TestPatternBehaviour:
    def test_variables(self):
        pattern = parse_pattern_list("(?x p:a ?y)")[0]
        assert pattern.variables() == {"x", "y"}

    def test_is_ground(self):
        assert parse_pattern_list("(s:a p:a o:a)")[0].is_ground()
        assert not parse_pattern_list("(s:a p:a ?o)")[0].is_ground()

    def test_substitute(self):
        pattern = parse_pattern_list("(?x p:a ?y)")[0]
        triple = pattern.substitute(
            {"x": URI("s:a"), "y": Literal("v")})
        assert triple.subject == URI("s:a")
        assert triple.object == Literal("v")

    def test_substitute_unbound_raises(self):
        pattern = parse_pattern_list("(?x p:a ?y)")[0]
        with pytest.raises(QueryError):
            pattern.substitute({"x": URI("s:a")})

    def test_substitute_invalid_triple_raises(self):
        pattern = parse_pattern_list("(?x p:a o:a)")[0]
        with pytest.raises(QueryError):
            pattern.substitute({"x": Literal("literal subject")})

    def test_str(self):
        pattern = parse_pattern_list("(?x p:a ?y)")[0]
        assert str(pattern) == "(?x p:a ?y)"

    def test_components_order(self):
        pattern = TriplePattern(Variable("s"), URI("p:a"), Variable("o"))
        assert list(pattern.components()) == [
            Variable("s"), URI("p:a"), Variable("o")]

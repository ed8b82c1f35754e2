"""Canonical cache keys for SDO_RDF_MATCH queries.

Two textually different queries that must hit one cache entry:

* whitespace — ``( ?s  <urn:p> ?o )`` vs ``(?s <urn:p> ?o)``;
* alias spelling — ``ex:p`` vs ``<urn:example/p>`` under the alias;
* filter keyword case and number form — ``"?a and ?b"`` vs
  ``"?a AND ?b"``, ``1`` vs ``1.0``, ``<>`` vs ``!=``;
* pattern order, when reordering is provably sound.

Rather than regex-scrubbing the text, normalization reuses the real
parsers: patterns canonicalize through ``str(TriplePattern)`` (which
collapses whitespace and expands aliases to full URIs), filters
through a canonical serialization of the parsed
:class:`~repro.inference.filters.FilterExpression` AST (which folds
keyword case, ``<>``/``!=``, and numeric literal spelling).  Anything
the parser rejects raises :class:`~repro.errors.QueryError` exactly as
execution would, so building a key never masks a bad query.

Pattern order: with no LIMIT the result is the same bag of rows under
any pattern permutation (joins are commutative; the planner already
reorders them), so the canonical forms are sorted.  With a LIMIT the
kept subset depends on an unspecified row order, so textual order is
preserved — correctness over hit rate.

Model and rulebase names are lowercased (both registries resolve
case-insensitively) and sorted+deduped.

A bounded memo keyed on the raw ``(query, filter, aliases)`` text
skips re-parsing for hot repeated shapes; entries never go stale
because parse output depends only on the key.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.inference.filters import FilterExpression, parse_filter
from repro.inference.patterns import parse_pattern_list
from repro.rdf.namespaces import AliasSet

_MEMO: dict[tuple, tuple] = {}
_MEMO_CAP = 512
_MEMO_LOCK = threading.Lock()


def normalized_key(query: str, models: Sequence[str],
                   rulebases: Sequence[str] = (),
                   aliases: AliasSet | None = None,
                   filter: str | None = None,
                   order_by: str | None = None,
                   limit: int | None = None) -> tuple:
    """The canonical, hashable cache key of one match query.

    Raises QueryError for anything the match parsers would reject.
    The alias set is folded *into* the pattern strings (aliases expand
    to full URIs), so the key has no alias component: the same query
    spelled with different alias tables still lands on one entry when
    the expansions agree.
    """
    patterns, canonical_filter = _canonical_parts(
        query, filter, aliases)
    if limit is None:
        patterns = tuple(sorted(patterns))
    return (
        patterns,  # first by contract: match telemetry counts key[0]
        tuple(sorted({name.lower() for name in models})),
        tuple(sorted({name.lower() for name in rulebases})),
        canonical_filter,
        order_by.lstrip("?") if order_by is not None else None,
        limit,
    )


def _canonical_parts(query: str, filter: str | None,
                     aliases: AliasSet | None
                     ) -> tuple[tuple[str, ...], str | None]:
    aliases = aliases or AliasSet()
    memo_key = (query, filter, tuple(sorted(
        (alias.namespace_id, alias.namespace_val)
        for alias in aliases)))
    with _MEMO_LOCK:
        cached = _MEMO.get(memo_key)
    if cached is not None:
        return cached
    patterns = tuple(
        str(pattern) for pattern in parse_pattern_list(query, aliases))
    canonical_filter = None
    if filter is not None and filter.strip():
        canonical_filter = canonical_filter_text(parse_filter(filter))
    parts = (patterns, canonical_filter)
    with _MEMO_LOCK:
        if len(_MEMO) >= _MEMO_CAP:
            _MEMO.pop(next(iter(_MEMO)))
        _MEMO[memo_key] = parts
    return parts


def canonical_filter_text(expression: FilterExpression) -> str:
    """One canonical spelling of a parsed filter.

    Serialized from the AST, so every lexical variation that parses to
    the same expression — keyword case, whitespace, ``<>`` vs ``!=``,
    ``1`` vs ``1.0``, bare-word vs ``?``-prefixed variables — collapses
    to the same string.
    """
    return " OR ".join(
        " AND ".join(
            f"{_operand(clause.left)} "
            f"{'!=' if clause.op == '<>' else clause.op} "
            f"{_operand(clause.right)}"
            for clause in conjunct)
        for conjunct in expression.disjuncts)


def _operand(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    # _Var — both ``?name`` and Oracle bare-word column style.
    return f"?{value.name}"

"""Logical query plans for SDO_RDF_MATCH.

The match path is a staged compilation pipeline; this module is the
middle of it:

1. :func:`build_plan` turns parsed triple patterns into a
   :class:`QueryPlan` — the logical IR.  Constants are resolved to
   VALUE_IDs (an unknown constant makes the plan *impossible*:
   nothing can match, though its SQL is still compiled for the
   shape's other constants), estimates come from
   :class:`~repro.inference.stats.MatchStatistics`, and a greedy
   reorder places the most selective pattern first, preferring
   join-connected patterns over cross products.
2. SQL generation emits the triples-dataset subquery **once** as a
   CTE (``WITH dataset AS NOT MATERIALIZED (...)``) instead of
   inlining it per pattern, joins the patterns with ``CROSS JOIN`` so
   SQLite runs them in the planned order, pushes translatable filter
   comparisons, ORDER BY, and LIMIT down into SQL, and skips
   ``DISTINCT`` when the dataset provably has no duplicate triples
   (single model, no rulebases).
3. :class:`PlanCache` keeps one compiled plan per query *shape*
   (:func:`plan_key`), checked against the database's
   ``data_version``.  A single-pattern query's constants are slots of
   its shape, bound on every hit (:meth:`QueryPlan.bind`: parse the
   constant token, resolve its VALUE_ID), so a point lookup of any
   subject skips parsing, statistics and SQL generation; a query of
   several patterns keeps its constants in the key, because its join
   order depends on them.  Any data change invalidates every cached
   plan at once.

Filter pushdown is deliberately conservative: only comparisons whose
SQL evaluation is *provably identical* to the Python evaluator in
:mod:`repro.inference.filters` are translated.  That means one side a
variable, the other a non-numeric string constant (numeric-looking
operands trigger Python float coercion that SQL text comparison would
not reproduce), with ``LIKE`` rewritten to the case-sensitive ``GLOB``.
Untranslatable clauses stay in the *residual* filter, evaluated in
Python after the SQL rows come back; a pushed clause is always a
necessary condition of the full filter, so pushing part of it is safe.
Lexical forms are compared via ``COALESCE(long_value, value_name)`` so
long literals compare by their full text, exactly like the Python side.
"""

from __future__ import annotations

import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from repro.core.schema import LINK_TABLE
from repro.errors import RulesIndexError, StaleRulesIndexError
from repro.inference.filters import Comparison, FilterExpression, _Var
from repro.inference.patterns import (
    TriplePattern,
    Variable,
    parse_component,
    scan_patterns,
)
from repro.inference.rules_index import INFERRED_TABLE
from repro.rdf.namespaces import AliasSet
from repro.rdf.terms import RDFTerm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import RDFStore
    from repro.core.values import ValueStore

#: ``NOT MATERIALIZED`` forces SQLite to treat the dataset CTE as a
#: view, so constants push into each reference and the access-path
#: indexes stay usable (3.35+ materializes multi-reference CTEs by
#: default, which would turn every join into a dataset scan).
_NOT_MATERIALIZED = ("NOT MATERIALIZED "
                     if sqlite3.sqlite_version_info >= (3, 35, 0) else "")

#: Operator flips for constant-on-the-left comparisons.
_FLIPPED_OPS = {"=": "=", "!=": "!=", "<>": "<>",
                "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# ----------------------------------------------------------------------
# logical IR
# ----------------------------------------------------------------------

@dataclass
class PlannedPattern:
    """One triple pattern, annotated by the planner."""

    source_index: int            #: position in the query text (0-based)
    pattern: TriplePattern
    constants: dict[str, int | None]  #: position (s/p/o) -> VALUE_ID
    estimate: float | None = None       #: estimated matching rows
    constant_counts: dict[str, int] = field(default_factory=dict)
    alias: str = ""              #: SQL alias, assigned in join order

    def rebind(self, bound: dict[str, tuple[RDFTerm, int | None]]
               ) -> "PlannedPattern":
        """This step with new constants, ``position -> (term,
        VALUE_ID)`` for each of its constant positions; statistics are
        dropped."""
        components = [bound[position][0] if position in bound else part
                      for position, part in zip("spo",
                                                self.pattern.components())]
        return PlannedPattern(
            self.source_index, TriplePattern(*components),
            {position: value_id for position, (_, value_id)
             in bound.items()}, alias=self.alias)

    def as_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "pattern": str(self.pattern),
            "source_index": self.source_index,
            "alias": self.alias,
        }
        if self.estimate is not None:
            entry["estimated_rows"] = round(self.estimate, 3)
            entry["constant_counts"] = dict(self.constant_counts)
        return entry


@dataclass
class QueryPlan:
    """A fully compiled SDO_RDF_MATCH query.

    ``sql`` is None for *impossible* plans (a constant with no
    VALUE_ID); everything needed at execution time — parameters,
    projection, the residual Python filter, which of ORDER BY / LIMIT
    already happened in SQL — is carried here so a cache hit can skip
    every earlier pipeline stage.

    A plan is also the template of its query shape: ``statement`` is
    the compiled SQL even when this call's constants made the plan
    impossible, and ``slots`` says which ``params`` entry each pattern
    constant fills, so :meth:`bind` can answer the same shape for other
    constants without compiling.  A bound plan records its constants in
    ``bound``; its ``join_order`` is still the template's, which is all
    execution needs, and :func:`describe` rebinds it for EXPLAIN.
    """

    sql: str | None
    params: tuple
    projection: dict[str, int]
    join_order: tuple[PlannedPattern, ...]
    reordered: bool
    dataset_size: int | None
    distinct: bool
    pushed_filter: str | None
    residual_filter: FilterExpression | None
    order_by_pushed: bool
    limit_pushed: bool
    impossible_reason: str | None
    data_version: int
    optimized: bool
    order_by: str | None = None   #: the requested sort variable
    limit: int | None = None      #: the requested row cap
    statement: str | None = None  #: the SQL, impossible or not
    #: ``(source_index, position, params index)`` of every pattern
    #: constant, in textual order — the order of a key's constants.
    slots: tuple[tuple[int, str, int], ...] = ()
    #: The constants of a bound plan, in slot order (see :meth:`bind`).
    bound: tuple[RDFTerm, ...] = ()

    @property
    def pattern_count(self) -> int:
        return len(self.join_order)

    def bind(self, terms: Sequence[RDFTerm],
             find_id: Callable[[RDFTerm], int | None]) -> "QueryPlan":
        """This plan's shape with ``terms`` as its pattern constants.

        ``terms`` fill :attr:`slots` in order, each resolved to its
        VALUE_ID on this call.  A term with no VALUE_ID makes only the
        bound plan impossible.  Runs on every cache hit, so it touches
        only what execution reads; :func:`describe` does the rest.
        """
        params = list(self.params)
        reason = None
        for (_, _, index), term in zip(self.slots, terms):
            value_id = find_id(term)
            if value_id is None and reason is None:
                reason = _unknown_constant(term)
            params[index] = value_id
        # A shallow copy without copy.copy's reduce protocol: this runs
        # on every cache hit.
        plan = object.__new__(QueryPlan)
        plan.__dict__.update(self.__dict__)
        plan.sql = None if reason else self.statement
        plan.params = tuple(params)
        plan.impossible_reason = reason
        plan.bound = tuple(terms)
        return plan

    def as_dict(self) -> dict[str, Any]:
        """The JSON-ready EXPLAIN payload."""
        return {
            "optimized": self.optimized,
            "impossible": self.impossible_reason,
            "dataset_size": self.dataset_size,
            "join_order": [step.as_dict() for step in self.join_order],
            "reordered": self.reordered,
            "distinct": self.distinct,
            "pushed_filter": self.pushed_filter,
            "residual_filter": self.residual_filter is not None,
            "order_by": self.order_by,
            "order_by_pushed": self.order_by_pushed,
            "limit": self.limit,
            "limit_pushed": self.limit_pushed,
            "sql": self.sql,
        }


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------

class PlanKey:
    """The cache key of one query shape, carrying this call's constants.

    Hash and equality cover the shape only: the pattern tokens with
    each constant of a single-pattern query lifted out as a positional
    slot, the models, rulebases, alias fingerprint, filter text,
    ``order_by`` and ``limit``.  ``constants`` (the lifted tokens, in
    textual order) and ``aliases`` ride along for
    :meth:`PlanCache.lookup` to bind.  A query of several patterns
    keeps its constants in the shape, because its join order depends
    on them.
    """

    __slots__ = ("shape", "constants", "aliases", "_hash")

    def __init__(self, shape: tuple, constants: tuple[str, ...],
                 aliases: AliasSet) -> None:
        self.shape = shape
        self.constants = constants
        self.aliases = aliases
        self._hash = hash(shape)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanKey) and self.shape == other.shape

    def __repr__(self) -> str:
        return f"PlanKey({self.shape!r}, constants={self.constants!r})"


def plan_key(query: str, models: Sequence[str],
             rulebases: Sequence[str], aliases: AliasSet,
             filter_text: str | None, order_by: str | None,
             limit: int | None) -> PlanKey:
    """The :class:`PlanKey` of one query.

    One scan of the query text by the pattern tokenizer, no term
    parsing, so a cache hit skips the parse stage; malformed text
    raises :class:`~repro.errors.QueryError` here.
    """
    groups = scan_patterns(query)
    if len(groups) == 1:
        tokens = groups[0]
        # None marks a slot: a variable token always starts with "?".
        constants = tuple([token for token in tokens if token[0] != "?"])
        patterns: tuple = tuple([token if token[0] == "?" else None
                                 for token in tokens])
    else:
        constants, patterns = (), tuple(groups)
    alias_fingerprint = tuple(sorted(
        (alias.namespace_id, alias.namespace_val)
        for alias in aliases)) if len(aliases) else ()
    return PlanKey((patterns, tuple(models), tuple(rulebases),
                    alias_fingerprint, filter_text, order_by, limit),
                   constants, aliases)


class PlanCache:
    """A keyed LRU cache of :class:`QueryPlan` templates, one per shape.

    Entries carry the ``data_version`` they were planned under; a
    lookup against a newer version drops the entry (statistics, and
    possibly constant VALUE_IDs, are stale).  One instance lives on
    the :class:`~repro.core.store.RDFStore` (``store.plan_cache``),
    resolving constants through that store's ``values``.

    Thread-safe: the OrderedDict LRU bookkeeping (``move_to_end``,
    eviction) and the hit/miss counters run under an RLock, so pooled
    server readers can share a store without corrupting the cache.
    Binding happens outside the lock and never touches the template.
    """

    def __init__(self, values: "ValueStore | None" = None,
                 capacity: int = 256) -> None:
        self._values = values
        self._capacity = capacity
        self._plans: OrderedDict[Hashable, QueryPlan] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def lookup(self, key: Hashable, data_version: int
               ) -> QueryPlan | None:
        """The cached plan for ``key`` bound to the key's constants, or
        None (counted as a miss).

        Each constant token is parsed and resolved to its VALUE_ID on
        every call, so the returned plan's ``sql``/``params`` answer
        this query; an unknown constant returns an impossible plan.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None and plan.data_version != data_version:
                del self._plans[key]
                self.invalidations += 1
                plan = None
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
        if not (isinstance(key, PlanKey) and key.constants):
            return plan
        aliases = key.aliases
        return plan.bind([parse_component(token, aliases)
                          for token in key.constants],
                         self._values.find_id)

    def store(self, key: Hashable, plan: QueryPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self._capacity:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._plans), "hits": self.hits,
                    "misses": self.misses,
                    "invalidations": self.invalidations}


# ----------------------------------------------------------------------
# filter pushdown
# ----------------------------------------------------------------------

def _parses_as_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _like_to_glob(pattern: str) -> str:
    """Rewrite a SQL-LIKE pattern as a GLOB pattern.

    The Python evaluator's LIKE is case-sensitive with ``%``/``_``
    wildcards; SQLite's LIKE is case-insensitive, but GLOB is
    case-sensitive with ``*``/``?`` wildcards and ``[...]`` classes —
    so GLOB is the exact translation once the wildcards are mapped
    and GLOB's own metacharacters are escaped as classes.
    """
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append("*")
        elif ch == "_":
            out.append("?")
        elif ch in "*?[":
            out.append(f"[{ch}]")
        else:
            out.append(ch)
    return "".join(out)


def _translate_clause(clause: Comparison) -> tuple[str, str, str] | None:
    """Translate one comparison to ``(variable, sql_op, constant)``.

    Returns None when the clause cannot be proven equivalent in SQL:
    variable-to-variable and constant-to-constant comparisons, parsed
    numbers, and numeric-looking strings (both trigger Python float
    coercion with different semantics than SQL text comparison).
    """
    left, op, right = clause.left, clause.op, clause.right
    if isinstance(left, _Var) and isinstance(right, str):
        variable, constant, sql_op = left.name, right, op
    elif isinstance(right, _Var) and isinstance(left, str):
        if op == "LIKE":  # "pattern" LIKE ?x has a variable pattern
            return None
        variable, constant, sql_op = right.name, left, _FLIPPED_OPS[op]
    else:
        return None
    if _parses_as_number(constant):
        return None
    if sql_op == "LIKE":
        return variable, "GLOB", _like_to_glob(constant)
    return variable, sql_op, constant


def _translate_filter(expression: FilterExpression
                      ) -> tuple[list[list[tuple[str, str, str]]],
                                 bool] | None:
    """Translate the pushable part of a filter.

    Returns ``(disjuncts, complete)`` where each disjunct is the list
    of translated clauses of one conjunct, or None when nothing useful
    can be pushed.  ``complete`` is True when *every* clause
    translated — only then can the Python-side filter be dropped.
    Pushing a subset of a conjunct's clauses is sound (a weaker,
    necessary condition); a disjunct with no translated clause makes
    the whole OR unpushable.
    """
    disjuncts: list[list[tuple[str, str, str]]] = []
    complete = True
    for conjunct in expression.disjuncts:
        translated = []
        for clause in conjunct:
            item = _translate_clause(clause)
            if item is None:
                complete = False
            else:
                translated.append(item)
        if not translated:
            return None
        disjuncts.append(translated)
    return disjuncts, complete


# ----------------------------------------------------------------------
# join ordering
# ----------------------------------------------------------------------

def _greedy_order(steps: list[PlannedPattern]) -> list[PlannedPattern]:
    """Most-selective-first greedy order, avoiding cross products.

    The first pattern is the one with the smallest estimate; each
    subsequent pick considers only patterns sharing a variable with
    the already-chosen set (join-connected) unless none is — ties
    break on textual position, keeping the order deterministic.
    """
    remaining = list(steps)
    chosen: list[PlannedPattern] = []
    bound: set[str] = set()
    while remaining:
        if chosen:
            connected = [step for step in remaining
                         if step.pattern.variables() & bound]
            pool = connected or remaining
        else:
            pool = remaining
        best = min(pool, key=lambda step: (step.estimate or 0.0,
                                           step.source_index))
        chosen.append(best)
        remaining.remove(best)
        bound |= best.pattern.variables()
    return chosen


# ----------------------------------------------------------------------
# plan building + SQL generation
# ----------------------------------------------------------------------

def _dataset_sql(store: "RDFStore", model_ids: Sequence[int],
                 index_name: str | None) -> tuple[str, list]:
    """The (sql, params) of the triples-dataset subquery."""
    placeholders = ", ".join("?" for _ in model_ids)
    sql = (f'SELECT start_node_id AS s, p_value_id AS p, '
           f'end_node_id AS o FROM "{LINK_TABLE}" '
           f"WHERE model_id IN ({placeholders})")
    params: list = list(model_ids)
    if index_name is not None:
        sql += (f' UNION SELECT s_id AS s, p_id AS p, o_id AS o '
                f'FROM "{INFERRED_TABLE}" WHERE index_name = ?')
        params.append(index_name)
    return sql, params


def resolve_rules_index(store: "RDFStore", models: Sequence[str],
                        rulebases: Sequence[str]) -> str | None:
    """The covering rules index name, or None without rulebases.

    Raises :class:`~repro.errors.RulesIndexError` when rulebases are
    given but no index covers them, mirroring Oracle's requirement to
    run CREATE_RULES_INDEX first.

    A stale index is never used silently: a ``manual`` index raises
    :class:`~repro.errors.StaleRulesIndexError`, while an auto-policy
    index (``incremental``/``rebuild`` — stale only through paths that
    bypass the write hook, e.g. a crash before commit) is rebuilt in
    place when the store is writable and refused when it is not.
    """
    if not rulebases:
        return None
    manager = store.rules_indexes
    index = manager.find_covering(models, rulebases)
    if index is None:
        raise RulesIndexError(
            "no rules index covers models "
            f"{list(models)} with rulebases {list(rulebases)}; "
            "run CREATE_RULES_INDEX first")
    if manager.is_stale(index.index_name):
        if index.maintain == "manual" or store.database.read_only:
            raise StaleRulesIndexError(index.index_name)
        manager.rebuild(index.index_name)
    return index.index_name


def build_plan(store: "RDFStore", patterns: list[TriplePattern],
               models: Sequence[str], rulebases: Sequence[str],
               filter_expression: FilterExpression | None = None,
               order_by: str | None = None,
               limit: int | None = None,
               optimize: bool = True) -> QueryPlan:
    """Compile patterns into a :class:`QueryPlan`.

    With ``optimize=False`` the plan reproduces the naive pipeline:
    textual pattern order, the dataset subquery inlined per pattern,
    unconditional DISTINCT, and no pushdown — the reference baseline
    for the property tests and the benchmark's before/after snapshot.

    An unknown constant makes the plan impossible (``sql`` None), but
    the statement is still compiled, in textual order: the plan is
    also the template its shape's other constants bind to.
    """
    data_version = store.database.data_version
    model_ids = [store.models.get(name).model_id for name in models]
    index_name = resolve_rules_index(store, models, rulebases)

    # ---- stage 1: logical nodes, constants resolved to VALUE_IDs ----
    steps: list[PlannedPattern] = []
    impossible_reason: str | None = None
    for source_index, pattern in enumerate(patterns):
        constants: dict[str, int | None] = {}
        for position, component in zip("spo", pattern.components()):
            if isinstance(component, Variable):
                continue
            value_id = store.values.find_id(component)
            if value_id is None and impossible_reason is None:
                impossible_reason = _unknown_constant(component)
            constants[position] = value_id
        steps.append(PlannedPattern(source_index, pattern, constants))

    # ---- stage 2: statistics and join order ----
    dataset_size: int | None = None
    if optimize and impossible_reason is None:
        dataset_size = _estimate(store, steps, model_ids, index_name)
        ordered = _greedy_order(steps)
    else:
        ordered = steps
    reordered = [step.source_index for step in ordered] != \
        [step.source_index for step in steps]
    for join_position, step in enumerate(ordered):
        step.alias = f"t{join_position}"

    # ---- stage 3: SQL generation ----
    dataset_sql, dataset_params = _dataset_sql(store, model_ids,
                                               index_name)
    # The naive compile inlines the dataset, with its parameters, once
    # per pattern.
    params: list = [] if optimize else dataset_params * len(ordered)

    select_columns: list[str] = []
    projection: dict[str, int] = {}
    where_clauses: list[str] = []
    first_occurrence: dict[str, str] = {}
    # (source_index, s/p/o column number) -> params index of a constant
    slot_params: dict[tuple[int, int], int] = {}
    for step in ordered:
        for number, (column, component) in enumerate(
                zip("spo", step.pattern.components())):
            qualified = f"{step.alias}.{column}"
            if isinstance(component, Variable):
                name = component.name
                if name in first_occurrence:
                    where_clauses.append(
                        f"{qualified} = {first_occurrence[name]}")
                else:
                    first_occurrence[name] = qualified
                    projection[name] = len(select_columns)
                    select_columns.append(
                        f"{qualified} AS c{len(select_columns)}")
            else:
                where_clauses.append(f"{qualified} = ?")
                slot_params[step.source_index, number] = len(params)
                params.append(step.constants[column])

    # Lexical access for pushed filters and ORDER BY: one rdf_value$
    # join per variable (value_id is its primary key, so the join can
    # never duplicate rows), placed right after the pattern that binds
    # the variable so a pushed filter prunes before the next pattern.
    value_aliases: dict[str, str] = {}
    value_joins: dict[str, list[str]] = {}  # pattern alias -> joins

    def lexical_of(variable: str) -> str:
        alias = value_aliases.get(variable)
        if alias is None:
            alias = f"v{len(value_aliases)}"
            value_aliases[variable] = alias
            binder = first_occurrence[variable]
            value_joins.setdefault(binder.split(".")[0], []).append(
                f'"rdf_value$" {alias}')
            where_clauses.append(f"{alias}.value_id = {binder}")
        return f"COALESCE({alias}.long_value, {alias}.value_name)"

    pushed_filter: str | None = None
    residual = filter_expression
    if optimize and filter_expression is not None:
        translated = _translate_filter(filter_expression)
        if translated is not None:
            disjuncts, complete = translated
            fragments = []
            for conjunct in disjuncts:
                parts = []
                for variable, sql_op, constant in conjunct:
                    parts.append(f"{lexical_of(variable)} {sql_op} ?")
                    params.append(constant)
                fragments.append("(" + " AND ".join(parts) + ")")
            pushed_filter = " OR ".join(fragments)
            where_clauses.append(f"({pushed_filter})")
            if complete:
                residual = None

    order_by_pushed = False
    order_clause = ""
    if optimize and order_by is not None and order_by in projection:
        order_column = f"o{len(select_columns)}"
        select_columns.append(
            f"{lexical_of(order_by)} AS {order_column}")
        order_clause = f" ORDER BY {order_column}"
        order_by_pushed = True

    # DISTINCT is only needed when the dataset itself can repeat a
    # triple: several models, or base triples UNIONed with inferred
    # ones.  A single model's rdf_link$ rows are unique on (s, p, o),
    # and every variable is projected, so the join cannot duplicate.
    distinct = (not optimize) or len(model_ids) > 1 \
        or index_name is not None

    existence_only = not projection
    limit_pushed = False
    sql_limit: int | None = None
    if existence_only:
        select_columns = select_columns or ["1"]
        if optimize:
            # All result rows are identical; one is enough to decide.
            sql_limit = 1
            if residual is None and limit is not None:
                sql_limit = min(limit, 1)
                limit_pushed = True
    elif optimize and residual is None and limit is not None:
        sql_limit = limit
        limit_pushed = True

    if optimize:
        # SQLite never reorders a CROSS JOIN, so the plan runs in the
        # greedy order its exact per-constant counts chose.
        from_sql = " CROSS JOIN ".join(
            item for step in ordered
            for item in (f"dataset {step.alias}",
                         *value_joins.get(step.alias, ())))
    else:
        from_sql = ", ".join(f"({dataset_sql}) {step.alias}"
                             for step in ordered)
    sql = f"SELECT {'DISTINCT ' if distinct else ''}" \
        f"{', '.join(select_columns)} FROM {from_sql}"
    if where_clauses:
        sql += " WHERE " + " AND ".join(where_clauses)
    sql += order_clause
    if sql_limit is not None:
        sql += f" LIMIT {sql_limit}"
    offset = 0
    if optimize:
        sql = (f"WITH dataset AS {_NOT_MATERIALIZED}({dataset_sql}) "
               + sql)
        params = dataset_params + params
        offset = len(dataset_params)

    return QueryPlan(
        sql=None if impossible_reason else sql, params=tuple(params),
        projection=projection, join_order=tuple(ordered),
        reordered=reordered, dataset_size=dataset_size,
        distinct=distinct, pushed_filter=pushed_filter,
        residual_filter=residual, order_by_pushed=order_by_pushed,
        limit_pushed=limit_pushed, impossible_reason=impossible_reason,
        data_version=data_version, optimized=optimize,
        order_by=order_by, limit=limit, statement=sql,
        slots=tuple((source_index, "spo"[column], index + offset)
                    for (source_index, column), index
                    in sorted(slot_params.items())))


def describe(store: "RDFStore", plan: QueryPlan, models: Sequence[str],
             rulebases: Sequence[str]) -> QueryPlan:
    """What EXPLAIN shows for a bound plan: its steps name its own
    constants and, when it is possible, carry their statistics.  The
    join order stays the template's; any other plan is returned as is.
    """
    if not plan.bound:
        return plan
    by_step: dict[int, dict[str, tuple[RDFTerm, int | None]]] = {}
    for (source_index, position, index), term in zip(plan.slots,
                                                      plan.bound):
        by_step.setdefault(source_index, {})[position] = \
            term, plan.params[index]
    steps = [step.rebind(by_step[step.source_index])
             if step.source_index in by_step else replace(step)
             for step in plan.join_order]
    dataset_size = None
    if plan.sql is not None:
        model_ids = [store.models.get(name).model_id for name in models]
        dataset_size = _estimate(store, steps, model_ids,
                                 resolve_rules_index(store, models,
                                                     rulebases))
    return replace(plan, join_order=tuple(steps),
                   dataset_size=dataset_size, bound=())


def _estimate(store: "RDFStore", steps: list[PlannedPattern],
              model_ids: Sequence[int], index_name: str | None) -> int:
    """Fill in each step's estimate; returns the dataset size."""
    statistics = store.match_statistics
    for step in steps:
        step.estimate, step.constant_counts = statistics.estimate_rows(
            model_ids, step.constants, index_name)
    return statistics.dataset_size(model_ids, index_name)


def _unknown_constant(term: RDFTerm) -> str:
    return f"constant {term} has no VALUE_ID (nothing can match)"

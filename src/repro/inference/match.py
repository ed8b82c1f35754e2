"""SDO_RDF_MATCH: the SQL-based RDF querying scheme.

The paper's table function (section 6.1)::

    SDO_RDF_MATCH(query, models, rulebases, aliases, filter)
        RETURN ANYDATASET

returns a table whose columns are the query variables.  Evaluation
follows the Chong et al. scheme the paper cites: each triple pattern
becomes a self-join over the triples dataset, executed as one SQL
statement against ``rdf_link$`` (UNION the ``rdf_inferred$`` rows of a
covering rules index when rulebases are given).  Joins happen on
VALUE_IDs; lexical forms are resolved only for the final projection.

One read path, six stages in a line:

1. **validate** the arguments (models, limit), after polling the
   connection for other connections' commits;
2. **result-cache probe** — opt-in (:mod:`repro.cache`): a fresh entry
   for the normalized query shape answers without stages 3-6;
3. **plan** — ``store.plan_cache`` keyed on the query shape: a hit
   binds this call's constants to the shape's cached template, so a
   point lookup of any subject skips parsing and compiling; a miss
   parses, validates and compiles (:mod:`repro.inference.plan`: joins
   reordered most-selective first, filter/ORDER BY/LIMIT pushed into
   SQL where provably equivalent);
4. **SQL** — the plan's one statement;
5. **resolve** the result VALUE_IDs to terms in one batch;
6. **post-process** — whatever of filter/ORDER BY/LIMIT was not pushed.

Telemetry is emitted once, after the last stage, whatever the outcome.
``explain=True`` stops after stage 3 and returns a
:class:`MatchExplanation` of the query asked (a shape hit reports its
own constants and their statistics); ``optimize=False`` is the legacy
textual-order compile (no statistics, pushdown or caches), kept as the
property tests' reference path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.cache.result_cache import read_through
from repro.errors import QueryError
from repro.inference.filters import FilterExpression, parse_filter
from repro.inference.patterns import TriplePattern, parse_pattern_list
from repro.inference.plan import QueryPlan, build_plan, describe, plan_key
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS as _COUNT_BUCKETS
from repro.obs.reqctx import current_trace
from repro.rdf.namespaces import AliasSet
from repro.rdf.terms import RDFTerm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import RDFStore


class MatchRow:
    """One result row: variable name -> value.

    Supports both mapping access (``row["name"]``) and attribute access
    (``row.name``), mirroring the SQL column style of the paper's
    Figure 8 (``a.name``).  Values are lexical strings; the full terms
    are available via :meth:`term`.
    """

    def __init__(self, terms: dict[str, RDFTerm]) -> None:
        self._terms = terms

    def term(self, name: str) -> RDFTerm:
        """The bound RDF term for a variable."""
        return self._terms[name]

    def __getitem__(self, name: str) -> str:
        return self._terms[name].lexical

    def __getattr__(self, name: str) -> str:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._terms[name].lexical
        except KeyError:
            raise AttributeError(name) from None

    def keys(self) -> list[str]:
        return list(self._terms)

    def as_dict(self) -> dict[str, str]:
        return {name: term.lexical for name, term in self._terms.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchRow):
            return self._terms == other._terms
        if isinstance(other, dict):
            return self.as_dict() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v.lexical!r}"
                          for k, v in self._terms.items())
        return f"MatchRow({inner})"


class MatchExplanation:
    """The EXPLAIN surface of one SDO_RDF_MATCH query.

    Returned by ``sdo_rdf_match(..., explain=True)`` instead of rows:
    the chosen join order with selectivity estimates, what was pushed
    into SQL, the generated statement, whether the plan came from the
    cache, and which engine would serve the query (``sql`` or the
    result ``cache``).
    """

    def __init__(self, query: str, models: tuple[str, ...],
                 rulebases: tuple[str, ...], cache: str,
                 plan: QueryPlan, engine: str = "sql") -> None:
        self.query = query
        self.models = models
        self.rulebases = rulebases
        self.cache = cache  #: "hit", "miss", or "bypass" (optimize off)
        self.plan = plan
        self.engine = engine  #: "sql" or "cache"

    def as_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "models": list(self.models),
            "rulebases": list(self.rulebases),
            "engine": self.engine,
            "plan_cache": self.cache,
            "plan": self.plan.as_dict(),
        }

    def render(self) -> str:
        """Human-readable EXPLAIN text (the ``repro explain`` output)."""
        plan = self.plan
        lines = [
            "SDO_RDF_MATCH plan",
            f"  query:           {self.query}",
            f"  models:          {', '.join(self.models)}",
        ]
        if self.rulebases:
            lines.append(f"  rulebases:       "
                         f"{', '.join(self.rulebases)}")
        lines.append(f"  engine:          {self.engine}")
        lines.append(f"  plan cache:      {self.cache}")
        if plan.impossible_reason is not None:
            lines.append(f"  impossible:      {plan.impossible_reason}")
            return "\n".join(lines)
        if plan.dataset_size is not None:
            lines.append(f"  dataset size:    {plan.dataset_size} "
                         "triples")
        reordered = "reordered" if plan.reordered else "textual order"
        lines.append(f"  join order:      {reordered}")
        for position, step in enumerate(plan.join_order, start=1):
            entry = (f"    {position}. {step.alias} {step.pattern} "
                     f"(pattern #{step.source_index + 1})")
            if step.estimate is not None:
                counts = " ".join(
                    f"{pos}={count}"
                    for pos, count in sorted(step.constant_counts.items()))
                entry += f"  est_rows={step.estimate:.1f}"
                if counts:
                    entry += f"  [{counts}]"
            lines.append(entry)
        lines.append(f"  distinct:        "
                     f"{'yes' if plan.distinct else 'no'}")
        if plan.pushed_filter is not None:
            lines.append(f"  pushed filter:   {plan.pushed_filter}")
        lines.append(
            "  residual filter: "
            + ("yes (python)" if plan.residual_filter is not None
               else "no"))
        if plan.order_by is None:
            order_line = "none"
        elif plan.order_by_pushed:
            order_line = f"?{plan.order_by} (pushed to SQL)"
        else:
            order_line = f"?{plan.order_by} (python sort)"
        lines.append(f"  order by:        {order_line}")
        if plan.limit is None:
            limit_line = "none"
        elif plan.limit_pushed:
            limit_line = f"{plan.limit} (pushed to SQL)"
        else:
            limit_line = f"{plan.limit} (python slice)"
        lines.append(f"  limit:           {limit_line}")
        lines.append(f"  sql:             {plan.sql}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"MatchExplanation(cache={self.cache!r}, "
                f"patterns={self.plan.pattern_count})")


def sdo_rdf_match(store: "RDFStore", query: str,
                  models: Sequence[str],
                  rulebases: Sequence[str] = (),
                  aliases: AliasSet | None = None,
                  filter: str | None = None,
                  order_by: str | None = None,
                  limit: int | None = None,
                  explain: bool = False,
                  optimize: bool = True):
    """Evaluate an SDO_RDF_MATCH query; returns ``list[MatchRow]``.

    :param query: the triple-pattern list, e.g.
        ``'(gov:files gov:terrorSuspect ?name)'``.
    :param models: model names to search (``SDO_RDF_MODELS``).
    :param rulebases: rulebase names (``SDO_RDF_RULEBASES``); needs a
        covering rules index to have been created, as in Oracle.
    :param aliases: namespace aliases (``SDO_RDF_ALIASES``).
    :param filter: optional filter predicate over the variables.
    :param order_by: optional variable (leading ``?`` optional) to sort
        by, lexically — the ORDER BY the paper wraps around in SQL.
    :param limit: optional row cap, applied after filter and order.
    :param explain: return the :class:`MatchExplanation`, run nothing.
    :param optimize: False is the legacy naive compile — textual join
        order, no pushdown, no plan or result cache.
    """
    # Another connection's commit (a second store on the file, another
    # process) must reach this store's caches before anything probes
    # them; pooled sessions were already polled at lease.
    store.poll_snapshot()
    if not models:
        raise QueryError("SDO_RDF_MATCH requires at least one model")
    if limit is not None and limit < 0:
        raise QueryError(f"limit must be >= 0, got {limit}")
    aliases = aliases or AliasSet()
    if order_by is not None:
        order_by = order_by.lstrip("?")
    shape = (query, models, rulebases, aliases, filter, order_by, limit)
    observer = store.observer
    plan = plan_cache = None  # stay None when the result cache answers

    def compute():
        nonlocal plan, plan_cache
        plan, plan_cache = _plan(store, *shape, optimize)
        return None if explain else _execute(store, plan, order_by, limit)

    with observer.span("match.execute", models=",".join(models),
                       query=query) as span:
        result, cached, key = read_through(
            store.result_cache if optimize else None,
            store.database.data_version, shape, compute, peek=explain)
        # ---- telemetry: once, whatever the outcome ----
        engine = "cache" if cached else "sql"
        rows = 0 if explain else len(result)
        span.set("engine", engine)
        span.set("rows", rows)
        if plan is not None:
            span.set("plan_cache", plan_cache)
            if plan.sql is None:
                span.set("short_circuit", "unknown-constant")
        if explain:
            span.set("explain", True)
            result = MatchExplanation(
                query=query, models=tuple(models),
                rulebases=tuple(rulebases), cache=plan_cache,
                plan=describe(store, plan, models, rulebases),
                engine=engine)
        else:
            # Not under explain: the EXPLAIN the server captures for a
            # slow request must not overwrite the real query's notes.
            request = current_trace()
            if request is not None:
                request.annotate("query", query)
                request.annotate("engine", engine)
                if plan_cache is not None:
                    request.annotate("plan_cache", plan_cache)
        if observer.enabled:
            observer.counter("match.queries").inc()
            if key is not None and not explain:
                observer.counter(
                    "match.result_cache_hits" if cached
                    else "match.result_cache_misses").inc()
            if plan_cache in ("hit", "miss"):
                observer.counter(
                    "match.plan_cache_hits" if plan_cache == "hit"
                    else "match.plan_cache_misses").inc()
            observer.metrics.histogram(
                "match.patterns", "triple patterns per query",
                buckets=range(1, 17)).observe(
                    len(key[0]) if plan is None else plan.pattern_count)
            observer.metrics.histogram(
                "match.rows", "result rows per query",
                buckets=_COUNT_BUCKETS).observe(rows)
    return result


def ask(store: "RDFStore", query: str, models: Sequence[str],
        rulebases: Sequence[str] = (),
        aliases: AliasSet | None = None) -> bool:
    """Existence form: does the (possibly ground) pattern match at all?
    ``limit=1`` makes the SQL stop at the first matching row."""
    return bool(sdo_rdf_match(store, query, models, rulebases=rulebases,
                              aliases=aliases, limit=1))


def _parse(query: str, aliases: AliasSet, filter: str | None,
           order_by: str | None
           ) -> tuple[list[TriplePattern], FilterExpression | None]:
    """The one parse of the match path: patterns and filter, with
    every variable they and ``order_by`` use bound."""
    patterns = parse_pattern_list(query, aliases)
    filter_expression = parse_filter(filter) if filter else None
    if filter_expression is not None or order_by is not None:
        bound = set().union(*(p.variables() for p in patterns))
        if filter_expression is not None:
            unknown = filter_expression.variables() - bound
            if unknown:
                raise QueryError(
                    f"filter {filter!r} references unbound variables "
                    f"{sorted(unknown)}")
        if order_by is not None and order_by not in bound:
            raise QueryError(f"order_by variable {order_by!r} is not "
                             "bound by the query")
    return patterns, filter_expression


def _plan(store: "RDFStore", query: str, models: Sequence[str],
          rulebases: Sequence[str], aliases: AliasSet,
          filter: str | None, order_by: str | None, limit: int | None,
          optimize: bool) -> tuple[QueryPlan, str]:
    """Stage 3: the cached template of this query shape bound to this
    call's constants, else a compiled plan, and which: "hit", "miss",
    or "bypass" (``optimize=False``)."""
    key = None
    status = "bypass"
    if optimize:
        key = plan_key(query, models, rulebases, aliases, filter,
                       order_by, limit)
        plan = store.plan_cache.lookup(key, store.database.data_version)
        if plan is not None:
            return plan, "hit"
        status = "miss"
    patterns, filter_expression = _parse(
        query, aliases, filter, order_by)
    observer = store.observer
    with observer.span("match.compile", patterns=len(patterns),
                       cache=status):
        plan = build_plan(store, patterns, models, rulebases,
                          filter_expression=filter_expression,
                          order_by=order_by, limit=limit,
                          optimize=optimize)
    if key is not None:
        store.plan_cache.store(key, plan)
    if observer.enabled and plan.reordered:
        observer.counter("match.join_reorders").inc()
    return plan, status


def _execute(store: "RDFStore", plan: QueryPlan, order_by: str | None,
             limit: int | None) -> list[MatchRow]:
    """Stages 4-6: run the plan's SQL, resolve VALUE_IDs to terms,
    apply whatever of filter / ORDER BY / LIMIT was not pushed down."""
    if plan.sql is None:
        return []  # a constant with no VALUE_ID: nothing can match
    observer = store.observer
    projection = plan.projection
    with observer.span("match.sql") as sql_span:
        fetched = store.database.query_all(plan.sql, plan.params)
        sql_span.set("fetched", len(fetched))
    if plan.optimized:
        with observer.span("match.resolve") as resolve_span:
            wanted = {raw[index] for raw in fetched
                      for index in projection.values()}
            terms = store.values.get_terms(wanted)
            resolve_span.set("values", len(wanted))
        rows = [MatchRow({name: terms[raw[index]]
                          for name, index in projection.items()})
                for raw in fetched]
    else:
        # The reference path: term by term, not the batch it checks.
        get_term = store.values.get_term
        rows = [MatchRow({name: get_term(raw[index])
                          for name, index in projection.items()})
                for raw in fetched]
    residual = plan.residual_filter
    if residual is not None:
        rows = [row for row in rows
                if residual.evaluate(dict(row._terms))]
    if order_by is not None and not plan.order_by_pushed:
        rows.sort(key=lambda match_row: match_row[order_by])
    if limit is not None and not plan.limit_pushed:
        rows = rows[:limit]
    return rows

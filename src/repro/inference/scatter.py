"""Scatter-gather SDO_RDF_MATCH over a sharded store.

``sdo_rdf_match`` compiles a whole pattern list into one SQL statement
— which assumes all of ``rdf_link$`` is in one file.  On a
:class:`~repro.core.sharded.ShardedRDFStore` that join can span shards
(each pattern's matches live wherever their *subjects* hash), so the
evaluation splits:

1. **Route.**  A pattern whose subject is a constant touches exactly
   ``{shard(model, subject) for model in models}``; a variable-subject
   pattern touches every shard.  When the union of every pattern's
   targets is a single shard, the *whole* query — filter, ORDER BY,
   LIMIT pushdown and all — is delegated to that one shard's read
   session and runs exactly like the single-file engine.  This is the
   paper's sweet spot: subject-anchored queries (member functions,
   reification lookups) stay single-shard.

2. **Scatter.**  Otherwise each (pattern, shard) pair compiles to a
   *single-pattern* subplan via the ordinary
   :func:`~repro.inference.plan.build_plan`, cached in that shard's own
   plan cache under a ``("scatter", pattern, models)`` key.  Each
   shard's caches are keyed on that shard's ``data_version`` — the
   per-shard data-version *vector* is what keeps plans, statistics,
   and term caches coherent without any cross-shard bookkeeping.

3. **Gather.**  Subplan rows are resolved to terms *on their own
   shard* (VALUE_IDs are shard-local — they must never cross a shard
   boundary) and merged in Python: hash joins over shared variables,
   smallest binding set first; the filter evaluated on full term
   bindings; ORDER BY re-sorted and LIMIT re-applied at the end, since
   per-shard pushdown of either would be wrong across shards.

Duplicate semantics mirror the single-file planner: within one model a
single pattern cannot produce duplicate bindings (triples are unique),
so only multi-model queries dedup — exactly when the single-file SQL
would have used ``DISTINCT``.

**Not supported** (raises :class:`~repro.errors.QueryError`):
rulebases — an inference closure computed per partition is not the
closure of the union, so entailed queries need the single-file engine
— and ``explain=True`` on queries that actually scatter (the fast
single-shard path explains fine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import DeadlineExceededError, QueryError
from repro.inference.match import (
    MatchRow,
    annotate_request,
    check_arguments,
    parse_and_validate,
    sdo_rdf_match,
)
from repro.inference.patterns import TriplePattern, Variable
from repro.inference.plan import build_plan
from repro.obs.reqctx import current_trace
from repro.rdf.namespaces import AliasSet
from repro.rdf.terms import RDFTerm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sharded import ShardedRDFStore
    from repro.core.store import RDFStore

#: A binding set: variable name -> resolved term.
Binding = dict


def scatter_match(engine: "ShardedRDFStore", query: str,
                  models: Sequence[str],
                  rulebases: Sequence[str] = (),
                  aliases: AliasSet | None = None,
                  filter: str | None = None,
                  order_by: str | None = None,
                  limit: int | None = None,
                  explain: bool = False,
                  optimize: bool = True):
    """Evaluate SDO_RDF_MATCH on a sharded store (see module doc)."""
    check_arguments(models, limit)
    if rulebases:
        raise QueryError(
            "rulebases are not supported on a sharded store: an "
            "inference closure computed per partition is not the "
            "closure of the union; use a single-file store for "
            "entailed queries (documented in docs/sharding.md)")
    aliases = aliases or AliasSet()
    if order_by is not None:
        order_by = order_by.lstrip("?")
    patterns, filter_expression = parse_and_validate(
        query, aliases, filter, order_by)
    # Captured here, on the caller's thread: the request trace (and so
    # its deadline) does not follow the fan-out onto the executor's
    # workers.  Every shard session runs its SQL under the budget.
    request = current_trace()
    deadline = request.deadline if request is not None else None

    # ---- route each pattern to its target shards ----
    model_names = list(models)
    targets: list[list[int]] = []
    for pattern in patterns:
        subject = pattern.subject
        if isinstance(subject, Variable):
            shards = set(engine.router.all_shards())
        else:
            shards = engine.router.shards_for_models(
                model_names, subject.lexical)
        targets.append(sorted(shards))

    union = set().union(*targets)
    if len(union) == 1:
        # Fast path: the whole query is answerable by one shard —
        # delegate to the ordinary single-file evaluator with full
        # filter/ORDER BY/LIMIT pushdown (and working explain).
        (shard,) = union
        with engine.shard_session(shard) as session, \
                session.database.deadline_scope(deadline):
            result = sdo_rdf_match(
                session, query, model_names, rulebases=(),
                aliases=aliases, filter=filter, order_by=order_by,
                limit=limit, explain=explain, optimize=optimize)
        if explain:
            # The shard session is a plain single-file store, so the
            # inner explain says "sql"; the query was still routed by
            # the sharded engine.
            result.engine = "scatter"
        return result

    if explain:
        raise QueryError(
            "explain is not supported for queries that scatter "
            "across shards; anchor the query on a constant subject "
            "(single-shard fast path) or explain against a "
            "single-file store")

    # ---- scatter: one single-pattern subplan per (pattern, shard) ----
    annotate_request(query, "scatter")
    dedup_pattern = len(model_names) > 1

    def run(task: tuple[int, int]):
        index, shard = task
        with engine.shard_session(shard) as session, \
                session.database.deadline_scope(deadline):
            return _pattern_bindings(session, patterns[index],
                                     model_names, optimize)

    tasks = [(index, shard)
             for index, shard_list in enumerate(targets)
             for shard in shard_list]
    outcomes = list(engine.executor.map(run, tasks))
    _check_deadline(deadline, "gather")

    per_pattern: list[list[Binding] | bool] = []
    for index, pattern in enumerate(patterns):
        shard_results = [outcome for task, outcome
                         in zip(tasks, outcomes) if task[0] == index]
        if not pattern.variables():
            # Ground pattern: an existence test — true on any shard.
            per_pattern.append(any(shard_results))
            continue
        merged: list[Binding] = []
        if dedup_pattern:
            seen: set[frozenset] = set()
            for chunk in shard_results:
                for binding in chunk:
                    key = frozenset(binding.items())
                    if key not in seen:
                        seen.add(key)
                        merged.append(binding)
        else:
            for chunk in shard_results:
                merged.extend(chunk)
        per_pattern.append(merged)

    # ---- gather: existence gates, then hash joins ----
    for pattern, result in zip(patterns, per_pattern):
        if not pattern.variables() and result is False:
            return []
    joinable = [(patterns[i].variables(), result)
                for i, result in enumerate(per_pattern)
                if patterns[i].variables()]
    if not joinable:
        # Every pattern ground and present: one empty-binding row,
        # exactly what the single-file existence SQL produces.
        rows = [MatchRow({})]
        return rows[:limit] if limit is not None else rows

    # Smallest binding set first keeps every intermediate join small.
    joinable.sort(key=lambda entry: len(entry[1]))
    bound_vars, bindings = joinable[0]
    bound_vars = set(bound_vars)
    for next_vars, next_bindings in joinable[1:]:
        bindings = _hash_join(bindings, bound_vars, next_bindings,
                              set(next_vars), deadline)
        bound_vars |= next_vars
        if not bindings:
            return []

    if filter_expression is not None:
        bindings = [binding for binding in bindings
                    if filter_expression.evaluate(binding)]
    rows = [MatchRow(binding) for binding in bindings]
    if order_by is not None:
        rows.sort(key=lambda row: row[order_by])
    if limit is not None:
        rows = rows[:limit]
    return rows


def _check_deadline(deadline, stage: str) -> None:
    """The merge runs in Python, where no SQL watchdog can see it: a
    budget that dies after the gather or mid-join still answers 504."""
    if deadline is not None and deadline.expired:
        raise DeadlineExceededError(
            f"request deadline expired in the scatter {stage} "
            f"(budget {deadline.budget * 1000:.0f} ms)")


def _pattern_bindings(session: "RDFStore", pattern: TriplePattern,
                      models: list[str], optimize: bool):
    """One pattern on one shard: rows resolved to term bindings.

    Ground patterns return a bare existence bool.  Plans are cached in
    the *shard's* plan cache keyed on the shard's own ``data_version``
    (the pool's acquire-time poll bumps it when the shard's writer —
    or anyone else — commits), so each shard invalidates independently.
    """
    key = ("scatter", str(pattern), tuple(models), optimize)
    plan = None
    if optimize:
        plan = session.plan_cache.lookup(
            key, session.database.data_version)
    if plan is None:
        plan = build_plan(session, [pattern], models, (),
                          optimize=optimize)
        if optimize:
            session.plan_cache.store(key, plan)
    ground = not pattern.variables()
    if plan.sql is None:
        # A constant term this shard has never dict-encoded: with
        # replicated-on-demand rdf_value$ that simply means no match
        # *here* — other shards answer for themselves.
        return False if ground else []
    fetched = session.database.query_all(plan.sql, plan.params)
    if ground:
        return bool(fetched)
    projection = plan.projection
    wanted = {raw[i] for raw in fetched for i in projection.values()}
    terms = session.values.get_terms(wanted)
    return [{name: terms[raw[i]] for name, i in projection.items()}
            for raw in fetched]


def _hash_join(left: list[Binding], left_vars: set[str],
               right: list[Binding], right_vars: set[str],
               deadline=None) -> list[Binding]:
    """Join two binding sets on their shared variables.

    Disjoint variable sets degrade to the cartesian product — the same
    cross join the single-file SQL emits for unconnected patterns.
    Join keys are resolved :class:`~repro.rdf.terms.RDFTerm` objects,
    never VALUE_IDs: ids are shard-local and equal terms on different
    shards carry different ids.
    """
    if not left or not right:
        return []
    shared = tuple(sorted(left_vars & right_vars))
    if not shared:
        return [{**a, **b} for a in left for b in right]
    table: dict[tuple[RDFTerm, ...], list[Binding]] = {}
    for binding in left:
        table.setdefault(
            tuple(binding[name] for name in shared), []).append(binding)
    joined: list[Binding] = []
    for binding in right:
        # Per probe row: a quadratic join is where a budget dies.
        _check_deadline(deadline, "join")
        key = tuple(binding[name] for name in shared)
        for match in table.get(key, ()):
            joined.append({**match, **binding})
    return joined

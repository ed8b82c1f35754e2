"""The five workloads.

Each workload function sets up, runs one phase for ``seconds`` and
returns an :class:`Outcome`.  Untraced (``traced=False``) it times whole
calls through the program's public surface and reports the end-to-end
metrics.  Traced, it replays the same seeded schedule *staged* — each
call into a layer wrapped in one of the benchmark's own spans — and
reports where the time went; nothing end-to-end comes from that phase.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
from time import perf_counter, perf_counter_ns

from repro import RDFStore
from repro.core.integrity import check_integrity
from repro.db.dburi import DBUri
from repro.inference.filters import parse_filter
from repro.inference.match import MatchRow, sdo_rdf_match
from repro.inference.patterns import parse_pattern_list
from repro.inference.plan import build_plan, plan_key
from repro.rdf.namespaces import AliasSet
from repro.workloads.uniprot import PROBE_SUBJECT

import serve
from dataset import (
    CURATED_BY,
    MODEL,
    MODELS,
    REIFY_BATCH,
    SERVE_RATE,
    SHAPES,
    Dataset,
    build_store,
    checkpointed_size,
    false_probe,
    row_hash,
    schedule_sha256,
    true_probe,
)
from trace import OP, WHOLE, Tracer, self_times, write_chrome

WARMUP_OPS = 1000
#: Single durable ``insert_triple`` transactions per ``load_reify`` round.
TXN_INSERTS = 500
#: Op ids of the traced single inserts start here, above every
#: reification's, so the spans of the two can be told apart.
TXN_OP_IDS = 10_000_000
#: Share of ``serve_mixed``'s arrivals that are inserts.  The issue asked
#: for 5 %; at 15 commits a second about 45 % of the lookups land on a
#: pooled reader whose caches a commit has just invalidated, which puts
#: the *median* lookup on the edge between the fast and the slow mode
#: (1.5-2.5 ms between runs of one seed).  At 2 % the median sits inside
#: the fast mode.
INSERT_SHARE = 0.02
#: The latency limit on the served lookups' p99, in seconds.
LATENCY_LIMIT = 0.020
#: The traced phase first replays untraced for this share of
#: ``--seconds`` (the base of ``trace.overhead_share``), then traced
#: for TRACED_SHARE.
UNTRACED_SHARE = 0.25
TRACED_SHARE = 0.5
#: The in-process workloads split the two into this many alternating
#: slices each.
TRACE_CYCLES = 3
SPAN_CAPACITY = 2_000_000
#: Every eleventh traced operation runs whole instead of staged (eleven
#: shares no factor with the five-shape rotation, so every shape does).
WHOLE_EVERY = 11

#: Span names of the staged replay; ``trace.share.<name>`` is the
#: span's self time over the traced phase's operation time.  A workload
#: that never enters a stage reports 0 for it: that is the "must not
#: move" column of the README in numbers.
STAGES = (
    "ntriples_parse", "bulk_stage", "bulk_merge_values",
    "bulk_merge_links", "bulk_analyze", "store_write", "commit",
    "plan_lookup", "patterns_parse", "plan_build", "match_sql",
    "match_resolve", "match_rows", "store_find_link",
    "store_is_reified_id", "client_request",
)
#: The stages a plan-cache hit skips.
COMPILE_STAGES = ("plan_lookup", "patterns_parse", "plan_build")
#: Per-workload numbers only a serve workload has (0 elsewhere).
SERVER_SIDE = ("server_endpoint_p50_us", "server_request_p50_us",
               "generator_late_p99_ms", "insert_p50_us", "closed_loop_rps",
               "rejected_429", "queue_growth", "pool_invalidations")


class Outcome:
    """What one phase of one workload produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        #: Not part of the driver's contract: schedule hash, sample
        #: counts, warnings — written to the report.
        self.detail: dict = {}
        self.warnings: list[str] = []
        #: The store the phase left behind (the layer probes copy it).
        self.db_path = ""

    def check(self, ok: bool, what: str) -> None:
        """A correctness gate outside the timed loop: one attempted
        operation, failed when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.warnings.append(f"FAILED: {what}")


class Run:
    """The arguments of one invocation, shared by every workload."""

    def __init__(self, dataset: Dataset, tmp: str, out_dir: str,
                 seconds: float, traced: bool, began: float) -> None:
        self.dataset = dataset
        self.tmp = tmp
        self.out_dir = out_dir
        self.seconds = seconds
        self.traced = traced
        self.began = began

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _steady() -> None:
    """Finish lazy set-up before timing: collect once, then freeze what
    set-up allocated so later collections do not walk the oracle."""
    gc.collect()
    gc.freeze()


def _end_to_end(outcome: Outcome, run: Run, ready: float, rss_mb: float,
                ops_per_s: float, primary: list[float],
                second: list[float], build: dict) -> None:
    outcome.metrics = {
        "setup_s": ready - run.began,
        "peak_rss_mb": rss_mb,
        "ops_per_s": ops_per_s,
        "op_p50_us": statistics.median(primary) * 1e6,
        "second_p50_us": statistics.median(second) * 1e6,
        "bytes_per_triple": build["bytes_per_triple"],
        "reif_storage_ratio": build["reif_storage_ratio"],
    }
    outcome.detail["samples"] = {"primary": len(primary),
                                 "second": len(second)}
    # Tails keep no bound on this box (see README): reported, not gated.
    for share in (0.90, 0.95, 0.99):
        outcome.detail[f"op_p{share * 100:.0f}_us"] = \
            percentile(primary, share) * 1e6


def _trace_metrics(outcome: Outcome, run: Run, name: str,
                   tracers: list[Tracer], untraced: list[float],
                   is_primary, extra: dict | None = None) -> None:
    """The per-workload half of the per-layer metrics, from the spans.

    ``is_primary(op_id)`` picks the operations ``op_p50_us`` is about;
    ``untraced`` holds their seconds with tracing off, from the slice
    of this run that came before the traced one.
    """
    extra = extra or {}
    totals: dict[str, int] = {}
    op_time = 0
    whole: list[int] = []
    staged: list[int] = []
    primary: list[int] = []
    primary_compile = 0
    for tracer in tracers:
        spans = tracer.spans()
        for stage, spent in self_times(spans).items():
            totals[stage] = totals.get(stage, 0) + spent
        whole_ops = {parent for span_name, _, _, parent, _ in spans
                     if span_name == WHOLE}
        sums: dict[int, int] = {}
        primary_ops = set()
        for index, (span_name, start, end, parent, op_id) \
                in enumerate(spans):
            if span_name == OP:
                if index not in whole_ops:
                    op_time += end - start
                    sums[index] = 0
                    if is_primary(op_id):
                        primary_ops.add(index)
                        primary.append(end - start)
            elif span_name == WHOLE:
                whole.append(end - start)
            elif parent in sums:
                sums[parent] += end - start
                if parent in primary_ops and span_name in COMPILE_STAGES:
                    primary_compile += end - start
        staged.extend(sums.values())
    metrics = {f"trace.share.{stage}": totals.get(stage, 0) / op_time
               for stage in STAGES}
    # Every eleventh operation ran whole instead of staged; the two
    # populations are drawn from one schedule, so the gap between
    # their mean costs is what the stage spans fail to attribute.
    metrics["trace.residual_share"] = extra.get(
        "residual_share",
        1.0 - statistics.fmean(staged) / statistics.fmean(whole)
        if whole else 0.0)
    traced_p50 = extra.get("traced_p50", statistics.median(primary) / 1e9)
    untraced_p50 = statistics.median(untraced)
    metrics["trace.overhead_share"] = \
        (traced_p50 - untraced_p50) / untraced_p50
    # The tail keeps no end-to-end bound on this box; here it is at
    # least on record (with its p50, from the same short slice).
    metrics["trace.untraced_p50_us"] = untraced_p50 * 1e6
    metrics["trace.untraced_p90_us"] = percentile(untraced, 0.90) * 1e6
    metrics["trace.primary_compile_share"] = \
        primary_compile / sum(primary)
    for key in SERVER_SIDE + ("plan_cache_hit_ratio",):
        metrics[f"trace.{key}"] = float(extra.get(key, 0.0))
    outcome.metrics = metrics
    if abs(metrics["trace.residual_share"]) > 0.10:
        outcome.warnings.append(
            f"{name}: residual_share "
            f"{metrics['trace.residual_share']:.3f} exceeds 0.10; "
            "closing it needs spans inside the program")
    outcome.detail["spans"] = sum(len(t.spans()) for t in tracers)
    outcome.detail["spans_dropped"] = sum(t.dropped for t in tracers)
    os.makedirs(run.out_dir, exist_ok=True)
    write_chrome(tracers, os.path.join(run.out_dir, f"trace-{name}.json"))


# ----------------------------------------------------------------------
# in-process operations: whole and staged
# ----------------------------------------------------------------------

def _provenance_query(link_id: int) -> str:
    return f"(?who <{CURATED_BY}> <{DBUri.for_link(link_id).text}>)"


class InProcess:
    """The in-process operations over one open store.

    An operation's arguments are built and its answer is checked outside
    the timed interval (and outside the OP span): only the call into the
    program is measured.
    """

    def __init__(self, store: RDFStore, dataset: Dataset) -> None:
        self.store = store
        self.dataset = dataset

    def _triple(self, kind: str, arg) -> tuple[str, str, str]:
        if kind == "reified_false":
            return false_probe(arg)
        return true_probe(self.dataset.reified[arg])

    def correct(self, kind: str, arg, answer) -> bool:
        """Does ``answer`` equal what the oracle expects?"""
        dataset = self.dataset
        if kind == "lookup":
            return row_hash(answer, ("p", "o")) == tuple(dataset.rows[arg])
        if kind in ("reified_true", "reified_false"):
            return answer is (kind == "reified_true")
        if kind == "provenance":
            return [row["who"] for row in answer] == \
                [dataset.curator_of(arg)]
        count, digest = dataset.analytic_expected(kind, arg)
        if kind == "order_limit":
            return dataset.order_limit_hash(answer) == (count, digest)
        if digest is None:
            return len(answer) == count
        return row_hash(answer, dataset.analytic_names(kind)) == \
            (count, digest)

    # -- whole calls through the public surface ------------------------

    def call(self, kind: str, arg) -> tuple[float, object]:
        """One operation through the public surface; returns (seconds in
        the program, its answer)."""
        store = self.store
        if kind == "lookup":
            query = self.dataset.lookup_query(arg)
            began = perf_counter()
            answer = sdo_rdf_match(store, query, MODELS)
        elif kind in ("reified_true", "reified_false"):
            triple = self._triple(kind, arg)
            began = perf_counter()
            answer = store.is_reified(MODEL, *triple)
        elif kind == "provenance":
            triple = self._triple(kind, arg)
            began = perf_counter()
            link = store.find_link(MODEL, *triple)
            answer = sdo_rdf_match(
                store, _provenance_query(link.link_id), MODELS)
        else:
            arguments = self.dataset.analytic_query(kind, arg)
            began = perf_counter()
            answer = sdo_rdf_match(store, models=MODELS, **arguments)
        return perf_counter() - began, answer

    def whole(self, kind: str, arg) -> tuple[float, bool]:
        """``call`` plus the oracle's verdict."""
        elapsed, answer = self.call(kind, arg)
        return elapsed, self.correct(kind, arg, answer)

    # -- the same operations, one span per layer call ------------------

    def staged(self, tracer: Tracer, op_id: int, kind: str, arg,
               whole: bool) -> bool:
        """Run one operation under an OP span — whole (one WHOLE child)
        or staged (one child per layer call); returns correctness."""
        store = self.store
        op = tracer.begin(OP, op_id)
        if whole:
            span = tracer.begin(WHOLE, op_id)
            _, answer = self.call(kind, arg)
            tracer.end(span)
        elif kind == "lookup":
            answer = self._staged_match(
                tracer, op_id, self.dataset.lookup_query(arg))
        elif kind in ("reified_true", "reified_false", "provenance"):
            triple = self._triple(kind, arg)
            span = tracer.begin("store_find_link", op_id)
            link = store.find_link(MODEL, *triple)
            tracer.end(span)
            if kind == "provenance":
                answer = self._staged_match(
                    tracer, op_id, _provenance_query(link.link_id))
            else:
                span = tracer.begin("store_is_reified_id", op_id)
                answer = store.is_reified_id(MODEL, link.link_id)
                tracer.end(span)
        else:
            answer = self._staged_match(
                tracer, op_id, **self.dataset.analytic_query(kind, arg))
        tracer.end(op)
        return self.correct(kind, arg, answer)

    def _staged_match(self, tracer: Tracer, op_id: int, query: str,
                      filter: str | None = None,
                      order_by: str | None = None,
                      limit: int | None = None) -> list[MatchRow]:
        """``sdo_rdf_match``'s SQL path, one public call per span."""
        store = self.store
        aliases = AliasSet()
        span = tracer.begin("plan_lookup", op_id)
        key = plan_key(query, MODELS, (), aliases, filter, order_by, limit)
        plan = store.plan_cache.lookup(key, store.database.data_version)
        tracer.end(span)
        if plan is None:
            span = tracer.begin("patterns_parse", op_id)
            patterns = parse_pattern_list(query, aliases)
            expression = parse_filter(filter) if filter else None
            tracer.end(span)
            span = tracer.begin("plan_build", op_id)
            plan = build_plan(store, patterns, MODELS, (),
                              filter_expression=expression,
                              order_by=order_by, limit=limit)
            store.plan_cache.store(key, plan)
            tracer.end(span)
        if plan.sql is None:
            return []
        span = tracer.begin("match_sql", op_id)
        fetched = store.database.query_all(plan.sql, plan.params)
        tracer.end(span)
        span = tracer.begin("match_resolve", op_id)
        projection = plan.projection
        terms = store.values.get_terms(
            {raw[index] for raw in fetched
             for index in projection.values()})
        tracer.end(span)
        span = tracer.begin("match_rows", op_id)
        rows = [MatchRow({name: terms[raw[index]]
                          for name, index in projection.items()})
                for raw in fetched]
        if plan.residual_filter is not None:
            rows = [row for row in rows if plan.residual_filter.evaluate(
                {name: row.term(name) for name in row.keys()})]
        if order_by is not None and not plan.order_by_pushed:
            rows.sort(key=lambda row: row[order_by])
        if limit is not None and not plan.limit_pushed:
            rows = rows[:limit]
        tracer.end(span)
        return rows


def _closed_loop(outcome: Outcome, inproc: InProcess, ops: list,
                 seconds: float, start: int = 0
                 ) -> tuple[dict[str, list[float]], int]:
    """One thread, next operation as soon as the last one is checked;
    returns latencies per kind and the next schedule position."""
    latency: dict[str, list[float]] = {}
    index = start
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        kind, arg = ops[index % len(ops)]
        elapsed, ok = inproc.whole(kind, arg)
        outcome.attempted += 1
        if ok:
            latency.setdefault(kind, []).append(elapsed)
        else:
            outcome.failed += 1
        index += 1
    return latency, index


def _traced_loop(outcome: Outcome, inproc: InProcess, ops: list,
                 seconds: float, start: int, tracer: Tracer) -> int:
    """The closed loop again, every operation under spans; returns the
    next schedule position."""
    index = start
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        kind, arg = ops[index % len(ops)]
        ok = inproc.staged(tracer, index, kind, arg,
                           whole=index % WHOLE_EVERY == 0)
        outcome.attempted += 1
        if not ok:
            outcome.failed += 1
        index += 1
    return index


def _verify_store(outcome: Outcome, store: RDFStore, dataset: Dataset
                  ) -> None:
    """The oracle's fixed points: the paper's probe subject, and the
    reified set resolved back through its DBUris."""
    inproc = InProcess(store, dataset)
    outcome.check(inproc.whole("lookup", PROBE_SUBJECT)[1],
                  "P93259 must return its 24 rows")
    rows = sdo_rdf_match(store, dataset.reified_query(), MODELS)
    found = set()
    for row in rows:
        triple = store.triple_of(store.reified_target(row["r"]).link_id)
        found.add((triple.subject.lexical, triple.object.lexical))
    outcome.check(found == set(dataset.reified),
                  "the reified set must equal the oracle's")


def _in_process(run: Run, name: str, ops: list, warmup: int,
                primary_kinds: tuple, second_kinds: tuple) -> Outcome:
    """``point_zipf`` and ``analytic_mix``: same entry point, one thread,
    closed loop."""
    outcome = Outcome()
    dataset = run.dataset
    outcome.detail["schedule_sha256"] = schedule_sha256(ops)
    outcome.db_path = run.path("data.db")
    build = build_store(dataset, outcome.db_path)
    store = RDFStore(outcome.db_path)
    try:
        inproc = InProcess(store, dataset)
        for kind, arg in ops[-warmup:]:
            outcome.check(inproc.whole(kind, arg)[1], f"warm-up {kind}")
        _steady()
        ready = perf_counter()
        if not run.traced:
            latency, _ = _closed_loop(outcome, inproc, ops, run.seconds)
            busy = sum(sum(values) for values in latency.values())
            done = sum(len(values) for values in latency.values())
            _end_to_end(
                outcome, run, ready, serve.own_peak_rss_mb(), done / busy,
                [v for kind in primary_kinds for v in latency[kind]],
                [v for kind in second_kinds for v in latency[kind]],
                build)
        else:
            # Untraced and traced slices take turns, so that the page
            # cache warming up over the run does not pass for (negative)
            # tracing overhead.
            tracer = Tracer(SPAN_CAPACITY)
            latency: dict[str, list[float]] = {}
            hits = misses = position = 0
            for _ in range(TRACE_CYCLES):
                sliced, position = _closed_loop(
                    outcome, inproc, ops,
                    run.seconds * UNTRACED_SHARE / TRACE_CYCLES, position)
                for kind, values in sliced.items():
                    latency.setdefault(kind, []).extend(values)
                before = store.plan_cache.stats()
                position = _traced_loop(
                    outcome, inproc, ops,
                    run.seconds * TRACED_SHARE / TRACE_CYCLES, position,
                    tracer)
                after = store.plan_cache.stats()
                hits += after["hits"] - before["hits"]
                misses += after["misses"] - before["misses"]
            _trace_metrics(
                outcome, run, name, [tracer],
                [v for kind in primary_kinds for v in latency[kind]],
                lambda op_id: ops[op_id % len(ops)][0] in primary_kinds,
                {"plan_cache_hit_ratio": hits / max(1, hits + misses)})
        _verify_store(outcome, store, dataset)
    finally:
        store.close()
    return outcome


def point_zipf(run: Run) -> Outcome:
    return _in_process(run, "point_zipf", run.dataset.point_schedule(),
                       WARMUP_OPS, ("lookup",),
                       ("reified_true", "reified_false"))


def analytic_mix(run: Run) -> Outcome:
    # Ten rotations of warm-up; 1 000 of these queries would take 5 s.
    return _in_process(run, "analytic_mix", run.dataset.analytic_schedule(),
                       10 * len(SHAPES), SHAPES, ("reif_join",))


# ----------------------------------------------------------------------
# load_reify
# ----------------------------------------------------------------------

def _txn_inserts(store: RDFStore, dataset: Dataset, tag: str,
                 tracer: Tracer | None = None) -> list[float]:
    """TXN_INSERTS single ``insert_triple`` calls, one durable
    transaction each; returns each one's seconds."""
    database = store.database
    timings = []
    for index in range(TXN_INSERTS):
        triple = (f"<urn:bench:txn:{dataset.seed}:{tag}:{index}>",
                  "<urn:bench:insertedBy>", "<urn:bench:generator>")
        began = perf_counter()
        if tracer is None:
            with database.transaction():
                store.insert_triple(MODEL, *triple)
        else:
            op_id = TXN_OP_IDS + index
            op = tracer.begin(OP, op_id)
            scope = database.transaction()
            scope.__enter__()
            span = tracer.begin("store_write", op_id)
            store.insert_triple(MODEL, *triple)
            tracer.end(span)
            span = tracer.begin("commit", op_id)
            scope.__exit__(None, None, None)
            tracer.end(span)
            tracer.end(op)
        timings.append(perf_counter() - began)
    return timings


def _fresh_path(run: Run) -> str:
    """The round's store path, with any earlier round's files gone."""
    path = run.path("round.db")
    for suffix in ("", "-wal", "-shm", ".naive", ".naive-wal",
                   ".naive-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    return path


def _load_round(run: Run, tag: str) -> dict:
    """Fresh durable store: bulk load, reify + provenance, single-insert
    transactions, then sizes."""
    path = _fresh_path(run)
    result = build_store(run.dataset, path)
    with RDFStore(path, durability="durable") as store:
        result["txn_inserts"] = _txn_inserts(store, run.dataset, tag)
        result["bytes_per_triple"] = \
            checkpointed_size(store) / run.dataset.triple_count
    return result


def bulkload_stages(store: RDFStore) -> dict[str, float]:
    """Seconds per loader stage, from the program's own ``bulkload.*``
    spans (the store must have been opened with ``observe=True``)."""
    return {stage: sum(span.duration for span in
                       store.observer.tracer.find(f"bulkload.{stage}"))
            for stage in ("stage", "merge_values", "merge_links", "analyze")}


def _traced_load(run: Run) -> Tracer:
    """The round staged: parse alone, then the loader under the
    program's own ``bulkload.*`` spans (``RDFStore(observe=True)``),
    then every reification and single insert, a span per store call."""
    from repro.core.bulkload import BulkLoader
    from repro.rdf.ntriples import parse_ntriples

    dataset = run.dataset
    tracer = Tracer(SPAN_CAPACITY)
    path = _fresh_path(run)
    with RDFStore(path, observe=True, durability="durable") as store:
        store.create_model(MODEL)
        op = tracer.begin(OP, 0)
        span = tracer.begin("ntriples_parse", 0)
        with open(dataset.nt_path, encoding="utf-8") as stream:
            triples = list(parse_ntriples(stream))
        tracer.end(span)
        cursor = perf_counter_ns()
        BulkLoader(store, MODEL).load(triples)
        # The loader's stages run back to back from its start.
        for stage, seconds in bulkload_stages(store).items():
            spent = int(seconds * 1e9)
            tracer.add(f"bulk_{stage}", cursor, cursor + spent, 0)
            cursor += spent
        tracer.end(op)
    with RDFStore(path, durability="durable") as store:
        database = store.database
        reified = dataset.reified
        for start in range(0, len(reified), REIFY_BATCH):
            scope = database.transaction()
            scope.__enter__()
            for index in range(start, min(start + REIFY_BATCH,
                                          len(reified))):
                op = tracer.begin(OP, index)
                span = tracer.begin("store_find_link", index)
                link = store.find_link(MODEL, *true_probe(reified[index]))
                tracer.end(span)
                span = tracer.begin("store_write", index)
                store.reify_triple(MODEL, link.link_id)
                store.assert_about(
                    MODEL, f"<{dataset.curator_of(index)}>",
                    f"<{CURATED_BY}>", link.link_id)
                tracer.end(span)
                tracer.end(op)
            op = tracer.begin(OP, start)
            span = tracer.begin("commit", start)
            scope.__exit__(None, None, None)
            tracer.end(span)
            tracer.end(op)
        _txn_inserts(store, dataset, "traced", tracer)
    return tracer


def load_reify(run: Run) -> Outcome:
    outcome = Outcome()
    dataset = run.dataset
    outcome.detail["schedule_sha256"] = schedule_sha256(
        [dataset.triple_count, dataset.reified])
    outcome.db_path = run.path("round.db")
    # Warm-up: the whole path once on a small store, which is also the
    # store check_integrity sweeps — its orphan-node check is quadratic
    # and takes minutes at the full size.
    warm = Run(Dataset(dataset.seed, WARMUP_OPS, run.path("warm.nt")),
               run.tmp, run.out_dir, 0, False, run.began)
    _load_round(warm, "warm")
    with RDFStore(outcome.db_path) as store:
        outcome.check(check_integrity(store) == [],
                      "check_integrity after load + reify + inserts")
        _verify_store(outcome, store, warm.dataset)
    _steady()
    ready = perf_counter()
    rounds = []
    deadline = ready + run.seconds * (UNTRACED_SHARE if run.traced else 1)
    while not rounds or perf_counter() < deadline:
        rounds.append(_load_round(run, str(len(rounds))))
        outcome.attempted += dataset.triple_count + len(dataset.reified) \
            + TXN_INSERTS
    inserts = [t for result in rounds for t in result["txn_inserts"]]
    if not run.traced:
        outcome.detail["rounds"] = len(rounds)
        _end_to_end(
            outcome, run, ready, serve.own_peak_rss_mb(),
            dataset.triple_count / statistics.median(
                result["load_s"] for result in rounds),
            inserts,
            [t for result in rounds for t in result["reify_batches"]],
            rounds[-1])
    else:
        tracer = _traced_load(run)
        # The load itself has no un-staged twin to compare against:
        # its residual is the part of its own span no stage covers.
        spans = tracer.spans()
        covered = sum(end - start for _, start, end, parent, _ in spans
                      if parent == 0)
        _trace_metrics(
            outcome, run, "load_reify", [tracer],
            inserts, lambda op_id: op_id >= TXN_OP_IDS,
            {"residual_share": 1.0 - covered / (spans[0][2] - spans[0][1])})
    with RDFStore(outcome.db_path) as store:
        _verify_store(outcome, store, dataset)
    return outcome


# ----------------------------------------------------------------------
# serve_read / serve_mixed
# ----------------------------------------------------------------------

def _histogram_p50_us(stats: dict, name: str) -> float:
    histogram = stats["metrics"]["histograms"].get(name)
    return histogram["p50"] * 1e6 if histogram else 0.0


def _serve(run: Run, name: str, insert_share: float) -> Outcome:
    outcome = Outcome()
    dataset = run.dataset
    ops = dataset.serve_schedule(insert_share)
    outcome.detail["schedule_sha256"] = schedule_sha256(ops)
    outcome.db_path = db_path = run.path("data.db")
    build = build_store(dataset, db_path)
    # The generator threads share this interpreter: a short switch
    # interval keeps one from holding another past its due time.
    sys.setswitchinterval(0.0001)
    with serve.ChildServer(db_path, run.path("server.log")) as server:
        connections = [serve.Connection(server, dataset)
                       for _ in range(serve.CONNECTIONS)]
        try:
            # Warm-up ids sit far above any the timed phases reach.
            warm = serve.closed_loop(connections, ops, count=WARMUP_OPS,
                                     offset=10 * len(ops) - WARMUP_OPS)
            outcome.check(warm.failed == 0, "warm-up requests")
            _steady()
            ready = perf_counter()
            if not run.traced:
                opened = serve.open_loop(connections, ops, run.seconds)
                phases = [warm, opened]
            else:
                # Untraced, then traced further down the same schedule,
                # then the same connections with no think time.
                seconds = run.seconds * UNTRACED_SHARE
                plain = serve.open_loop(connections, ops, seconds)
                tracers = [Tracer(SPAN_CAPACITY // 8, tid)
                           for tid in range(len(connections))]
                for connection, tracer in zip(connections, tracers):
                    connection.tracer = tracer
                opened = serve.open_loop(connections, ops,
                                         run.seconds * TRACED_SHARE,
                                         skip=seconds)
                for connection in connections:
                    connection.tracer = None
                with server.client() as client:
                    stats = client.stats()
                closed = serve.closed_loop(
                    connections, ops, seconds=seconds,
                    offset=sum(1 for op in ops if op[0] < run.seconds))
                phases = [warm, plain, opened, closed]
            for phase in phases[1:]:
                outcome.attempted += phase.attempted
                outcome.failed += phase.failed
            acked = [index for phase in phases for index in phase.acked]
            with server.client() as client:
                # Every acknowledged insert must be readable over HTTP ...
                readable = sum(
                    client.match(f"({serve.inserted_triple(dataset, i)[0]}"
                                 " ?p ?o)", MODELS)["count"] for i in acked)
                outcome.check(readable == len(acked),
                              f"{readable}/{len(acked)} acknowledged "
                              "inserts readable over HTTP")
        finally:
            for connection in connections:
                connection.client.close()
    # ... and again after the SIGINT drain, from the file alone.
    build["bytes_per_triple"] = \
        os.path.getsize(db_path) / dataset.triple_count
    with RDFStore(db_path) as store:
        survived = sum(store.is_triple(
            MODEL, *serve.inserted_triple(dataset, i)) for i in acked)
        outcome.check(survived == len(acked),
                      f"{survived}/{len(acked)} acknowledged inserts "
                      "survive drain + reopen")
    lookups = opened.latency["lookup"]
    late_p99 = percentile(opened.late, 0.99)
    rejected = sum(phase.rejected_429 for phase in phases)
    outcome.detail.update({
        "rate_per_s": SERVE_RATE, "connections": len(connections),
        "generator_late_p99_ms": late_p99 * 1e3,
        "backlog_at_end_of_open_loop": opened.backlog,
        "rejected_429": rejected, "acked_inserts": len(acked)})
    if not run.traced:
        p50 = statistics.median(lookups)
        p99 = percentile(lookups, 0.99)
        outcome.detail.update({
            "lookup_p99_ms": p99 * 1e3,
            "latency_limit_ms": LATENCY_LIMIT * 1e3,
            "rate_met_limit": p99 <= LATENCY_LIMIT
            and opened.backlog == 0 and opened.failed == 0})
        if late_p99 > 0.15 * p50:
            outcome.warnings.append(
                f"{name}: generator lateness p99 {late_p99 * 1e3:.2f} ms "
                f"exceeds 15% of lookup p50 {p50 * 1e3:.2f} ms; the serve "
                "numbers include the instrument")
        # Timed from the send, the same lookups give what one connection
        # would sustain (ops_per_s, as in the in-process workloads: per
        # second spent waiting on the program) and the latency without
        # the wait for a free connection (second_p50_us).
        service = opened.service["lookup"]
        _end_to_end(outcome, run, ready, server.peak_rss_mb,
                    len(service) / sum(service), lookups, service, build)
    else:
        _trace_metrics(
            outcome, run, name, tracers,
            plain.latency["lookup"], lambda op_id: True, {
                # Both medians count from the due time, as op_p50_us does.
                "traced_p50": statistics.median(lookups),
                "server_endpoint_p50_us": _histogram_p50_us(
                    stats, "server.endpoint.match.seconds"),
                "server_request_p50_us": _histogram_p50_us(
                    stats, "server.latency_seconds"),
                "generator_late_p99_ms": late_p99 * 1e3,
                "insert_p50_us": statistics.median(
                    opened.service.get("insert", [0.0])) * 1e6,
                "closed_loop_rps":
                len(closed.latency["lookup"]) / closed.wall,
                "rejected_429": rejected,
                "queue_growth": opened.backlog,
                "pool_invalidations": stats["pool"]["invalidations"]})
    return outcome


def serve_read(run: Run) -> Outcome:
    return _serve(run, "serve_read", 0.0)


def serve_mixed(run: Run) -> Outcome:
    return _serve(run, "serve_mixed", INSERT_SHARE)


WORKLOADS = {
    "load_reify": load_reify,
    "point_zipf": point_zipf,
    "analytic_mix": analytic_mix,
    "serve_read": serve_read,
    "serve_mixed": serve_mixed,
}

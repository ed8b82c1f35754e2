"""Command-line interface for the RDF store.

Usage (``python -m repro <command> ...``)::

    repro create-model  DB MODEL                create a model
    repro load          DB MODEL FILE.nt        bulk-load N-Triples
    repro insert        DB MODEL S P O          insert one triple
    repro query         DB 'PATTERNS' -m m1,m2  SDO_RDF_MATCH
    repro explain       DB 'PATTERNS' -m m1     query plan, no execution
    repro trace         DB 'PATTERNS' -m m1     query + span/SQL report
    repro reify         DB MODEL S P O          reify a triple
    repro is-reified    DB MODEL S P O          reification check
    repro models        DB                      list models
    repro stats         DB [MODEL] [--json]     store/network figures
    repro doctor        DB                      health check (integrity)
    repro serve         DB [--port P]           HTTP serving layer
    repro slowlog       URL [--trace ID]        a server's slow-request log
    repro experiments   [--sizes ...]           run the paper's tables

``DB`` is a database file path (created as needed).  The CLI is a thin
shell over the library; every command maps to one documented API call.

Global flags: ``--verbose`` switches on debug logging (JSON lines on
stderr; see :mod:`repro.obs.logjson`), ``--observe`` enables the
observability layer (SQL timing, spans, metrics) for the command —
``repro stats --json`` then includes the collected figures.  The
``REPRO_OBSERVE`` and ``REPRO_LOG`` environment variables do the same
without flags.  ``--durability {ephemeral,durable,paranoid}`` selects
the storage durability profile (see ``docs/durability.md``); the
``REPRO_DURABILITY`` environment variable does the same without the
flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.core.bulkload import bulk_load_ntriples
from repro.core.store import RDFStore
from repro.db.resilience import PROFILES as DURABILITY_PROFILES
from repro.errors import ReproError
from repro.inference.match import sdo_rdf_match
from repro.ndm.analysis import NetworkAnalyzer
from repro.obs import configure_logging
from repro.rdf.namespaces import Alias, AliasSet


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Object-typed RDF store (ICDE 2006 "
        "reproduction)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging (JSON lines on stderr)")
    parser.add_argument("--observe", action="store_true",
                        help="enable SQL timing, spans, and metrics "
                        "for this command (also: REPRO_OBSERVE=1)")
    parser.add_argument("--durability",
                        choices=sorted(DURABILITY_PROFILES),
                        default=None,
                        help="storage durability profile (default: "
                        "REPRO_DURABILITY or 'ephemeral')")
    commands = parser.add_subparsers(dest="command", required=True)

    create_model = commands.add_parser(
        "create-model", help="create an RDF model")
    create_model.add_argument("db")
    create_model.add_argument("model")

    load = commands.add_parser("load", help="bulk-load an N-Triples file")
    load.add_argument("db")
    load.add_argument("model")
    load.add_argument("file")

    insert = commands.add_parser("insert", help="insert one triple")
    insert.add_argument("db")
    insert.add_argument("model")
    insert.add_argument("subject")
    insert.add_argument("predicate")
    insert.add_argument("object")

    query = commands.add_parser("query", help="run SDO_RDF_MATCH")
    query.add_argument("db")
    query.add_argument("patterns",
                       help="e.g. '(?s gov:terrorSuspect ?o)'")
    query.add_argument("-m", "--models", required=True,
                       help="comma-separated model names")
    query.add_argument("-r", "--rulebases", default="",
                       help="comma-separated rulebase names")
    query.add_argument("-a", "--alias", action="append", default=[],
                       metavar="PREFIX=NAMESPACE")
    query.add_argument("-f", "--filter", default=None)

    explain = commands.add_parser(
        "explain", help="show the SDO_RDF_MATCH query plan without "
        "executing: join order, selectivity estimates, pushdown, SQL")
    explain.add_argument("db")
    explain.add_argument("patterns",
                         help="e.g. '(?s gov:terrorSuspect ?o)'")
    explain.add_argument("-m", "--models", required=True,
                         help="comma-separated model names")
    explain.add_argument("-r", "--rulebases", default="",
                         help="comma-separated rulebase names")
    explain.add_argument("-a", "--alias", action="append", default=[],
                         metavar="PREFIX=NAMESPACE")
    explain.add_argument("-f", "--filter", default=None)
    explain.add_argument("--order-by", default=None,
                         help="variable the query would sort by")
    explain.add_argument("--limit", type=int, default=None)
    explain.add_argument("--naive", action="store_true",
                         help="plan with the legacy textual-order "
                         "compile (no statistics, no pushdown)")
    explain.add_argument("--json", action="store_true",
                         help="emit the plan as JSON")

    trace = commands.add_parser(
        "trace", help="run a query under tracing, print the span tree "
        "and SQL timings")
    trace.add_argument("db")
    trace.add_argument("patterns",
                       help="e.g. '(?s gov:terrorSuspect ?o)'")
    trace.add_argument("-m", "--models", required=True,
                       help="comma-separated model names")
    trace.add_argument("-r", "--rulebases", default="",
                       help="comma-separated rulebase names")
    trace.add_argument("-a", "--alias", action="append", default=[],
                       metavar="PREFIX=NAMESPACE")
    trace.add_argument("--last", type=int, default=20,
                       help="show the last N spans (default 20)")
    trace.add_argument("--json", action="store_true",
                       help="emit the span/SQL report as JSON")
    trace.add_argument("--chrome", action="store_true",
                       help="emit the spans as a Chrome trace-event "
                       "JSON array (load in chrome://tracing or "
                       "ui.perfetto.dev)")

    reify = commands.add_parser("reify", help="reify a triple")
    for name in ("db", "model", "subject", "predicate", "object"):
        reify.add_argument(name)

    is_reified = commands.add_parser("is-reified",
                                     help="reification check")
    for name in ("db", "model", "subject", "predicate", "object"):
        is_reified.add_argument(name)

    models = commands.add_parser("models", help="list models")
    models.add_argument("db")

    rules_index = commands.add_parser(
        "rules-index", help="inspect or maintain rules indexes")
    rules_index.add_argument("db")
    rules_index.add_argument("action", choices=("status", "maintain"),
                             help="status: list indexes with policy and "
                             "staleness; maintain: bring one (or every) "
                             "stale index up to date")
    rules_index.add_argument("name", nargs="?", default=None,
                             help="index name (default: all)")
    rules_index.add_argument("--json", action="store_true",
                             help="emit machine-readable output")

    stats = commands.add_parser("stats", help="store/network figures")
    stats.add_argument("db")
    stats.add_argument("model", nargs="?")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output; includes SQL "
                       "timings/spans/metrics when observing")
    stats.add_argument("--prometheus", action="store_true",
                       help="dump the metrics registry in Prometheus "
                       "text format (requires --observe)")

    check = commands.add_parser(
        "check", help="run the central-schema integrity checks")
    check.add_argument("db")

    doctor = commands.add_parser(
        "doctor", help="full health check: PRAGMA integrity_check, "
        "foreign_key_check, and the central-schema integrity sweeps "
        "of an existing store (a missing DB is an error, never "
        "created)")
    doctor.add_argument("db")

    path = commands.add_parser(
        "path", help="shortest path between two resources (NDM)")
    path.add_argument("db")
    path.add_argument("model")
    path.add_argument("source")
    path.add_argument("target")
    path.add_argument("--undirected", action="store_true",
                      help="ignore link direction")

    export = commands.add_parser(
        "export", help="serialize a model (.nt/.ttl/.rdf by extension)")
    export.add_argument("db")
    export.add_argument("model")
    export.add_argument("file")
    export.add_argument("--expand-reification", action="store_true",
                        help="rewrite DBUri reifications as portable "
                        "quads")

    serve = commands.add_parser(
        "serve", help="serve SDO_RDF_MATCH over HTTP: a read-connection "
        "pool, the single-writer queue, 429 backpressure "
        "(see docs/server.md)")
    serve.add_argument("db", help="database file (created as needed)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7333)
    serve.add_argument("--workers", type=int, default=4,
                       help="read-pool size = concurrent queries "
                       "(default 4)")
    serve.add_argument("--backlog", type=int, default=8,
                       help="extra requests admitted beyond --workers "
                       "before 429 (default 8)")
    serve.add_argument("--writer-queue", type=int, default=64,
                       help="bound on queued write jobs (default 64)")
    serve.add_argument("--result-cache", action="store_true",
                       help="answer repeated /match bodies from a "
                       "versioned in-memory result cache shared by "
                       "the read pool, invalidated exactly on "
                       "write_version change (see "
                       "docs/result_cache.md)")
    serve.add_argument("--idempotency-capacity", type=int,
                       default=None, metavar="N",
                       help="Idempotency-Key ledger entries retained "
                       "per database (default 4096)")
    serve.add_argument("--access-log", action="store_true",
                       help="emit one JSON access-log line per request "
                       "on stderr")
    serve.add_argument("--slow-threshold", type=float, default=None,
                       metavar="SECONDS",
                       help="capture requests at/past this duration "
                       "into the slow-request log (/debug/slow); "
                       "default 0.25s")

    slowlog = commands.add_parser(
        "slowlog", help="inspect a running server's slow-request log "
        "(GET /debug/slow), or fetch one request's trace by id")
    slowlog.add_argument("url",
                         help="server base URL, e.g. "
                         "http://127.0.0.1:7333")
    slowlog.add_argument("--limit", type=int, default=None,
                         help="show at most N slow requests")
    slowlog.add_argument("--trace", metavar="REQUEST_ID", default=None,
                         help="fetch one request's trace by its "
                         "X-Request-Id")
    slowlog.add_argument("--chrome", action="store_true",
                         help="with --trace: emit the Chrome "
                         "trace-event JSON array")
    slowlog.add_argument("--json", action="store_true",
                         help="emit machine-readable output")

    chaos = commands.add_parser(
        "chaos", help="run seeded chaos storms against an ephemeral "
        "server and assert the resilience invariants: no torn reads, "
        "monotonic versions, exactly-once writes, request ids on "
        "every response, no stale cache serves (see "
        "docs/resilience.md)")
    chaos.add_argument("db", nargs="?", default=None,
                       help="database file (default: a temp file per "
                       "storm)")
    chaos.add_argument("--classes", default="all",
                       help="comma list of fault classes to storm "
                       "(default: all of clean, slow-sql, "
                       "drop-response, writer-stall, pool-exhaust)")
    chaos.add_argument("--seed", type=int, default=42,
                       help="fault-schedule seed; the same seed "
                       "replays the same storm (default 42)")
    chaos.add_argument("--requests", type=int, default=200,
                       help="operations per storm (default 200)")
    chaos.add_argument("--threads", type=int, default=4,
                       help="client threads per storm (default 4)")
    chaos.add_argument("--workers", type=int, default=3,
                       help="server read-pool size (default 3)")
    chaos.add_argument("--chance", type=float, default=0.15,
                       help="per-operation fault probability "
                       "(default 0.15)")
    chaos.add_argument("--delay", type=float, default=0.02,
                       help="slow/stall fault sleep seconds "
                       "(default 0.02)")
    chaos.add_argument("--result-cache", action="store_true",
                       help="storm servers with the result cache "
                       "enabled, so the no-stale-cache-serves "
                       "invariant is exercised under faults")
    chaos.add_argument("--json", action="store_true",
                       help="emit machine-readable reports")

    experiments = commands.add_parser(
        "experiments", help="run the paper's experiment tables")
    experiments.add_argument("--sizes", default="10000,100000")
    experiments.add_argument("--trials", type=int, default=10)

    generate = commands.add_parser(
        "generate-uniprot",
        help="write the synthetic UniProt dataset to a file")
    generate.add_argument("file")
    generate.add_argument("--triples", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=93259)
    generate.add_argument("--with-quads", action="store_true",
                          help="append the paper-ratio reification "
                          "quads")
    return parser


def _parse_aliases(pairs: list[str]) -> AliasSet:
    alias_set = AliasSet()
    for pair in pairs:
        prefix, sep, namespace = pair.partition("=")
        if not sep:
            raise ReproError(
                f"alias {pair!r} must be PREFIX=NAMESPACE")
        alias_set.add(Alias(prefix, namespace))
    return alias_set


def main(argv: Sequence[str] | None = None,
         out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.verbose:
        configure_logging("debug")
    else:
        configure_logging()  # honours REPRO_LOG, silent otherwise
    try:
        return _dispatch(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1


def _dispatch(args: argparse.Namespace, out) -> int:
    if args.command == "experiments":
        from repro.bench import run_all

        run_all.main(["--sizes", args.sizes,
                      "--trials", str(args.trials)])
        return 0
    if args.command == "generate-uniprot":
        return _generate_uniprot(args, out)
    if args.command == "serve":
        return _serve(args, out)
    if args.command == "slowlog":
        # Talks to a running server over HTTP — no local store.
        return _slowlog(args, out)
    if args.command == "chaos":
        return _chaos(args, out)
    if args.command == "doctor" and not os.path.isfile(args.db):
        # The store open below would create the file it was asked to
        # check, and then report it clean.
        raise ReproError(f"no database file at {args.db}")
    # The trace command is only useful observed; --observe opts other
    # commands in, None defers to REPRO_OBSERVE.
    observe = True if (args.observe or args.command == "trace") else None
    with RDFStore(args.db, observe=observe,
                  durability=args.durability) as store:
        return _dispatch_store(args, store, out)


def _serve(args: argparse.Namespace, out) -> int:
    """Run the HTTP serving layer until interrupted."""
    import time

    from repro.server.app import ReproServer, ServerConfig

    # The serving layer needs WAL; the ephemeral default (and an
    # explicit ephemeral) cannot host concurrent readers.
    durability = args.durability or "durable"
    extra = {}
    if args.slow_threshold is not None:
        extra["slow_threshold"] = args.slow_threshold
    if args.idempotency_capacity is not None:
        extra["idempotency_capacity"] = args.idempotency_capacity
    config = ServerConfig(
        path=args.db, host=args.host, port=args.port,
        workers=args.workers, backlog=args.backlog,
        writer_queue=args.writer_queue, durability=durability,
        observe=bool(args.observe), access_log=bool(args.access_log),
        result_cache=bool(args.result_cache), **extra)
    server = ReproServer(config)
    server.start()
    host, port = server.address
    engine = "single file"
    if config.result_cache:
        engine += " + result cache"
    print(f"serving {args.db} on http://{host}:{port} "
          f"({engine}, {config.workers} workers, "
          f"backlog {config.backlog}, "
          f"durability {config.durability}) — Ctrl-C to stop",
          file=out)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("draining...", file=out)
    finally:
        server.stop()
    print("stopped", file=out)
    return 0


def _chaos(args: argparse.Namespace, out) -> int:
    """``repro chaos [DB] [--classes ...] [--seed N]`` — storm suite."""
    import json
    import os
    import tempfile
    import time

    from repro.db.faults import FaultInjector
    from repro.server.app import ReproServer, ServerConfig
    from repro.server.chaos import FAULT_CLASSES, arm_faults, run_storm

    names = (list(FAULT_CLASSES) if args.classes == "all"
             else [part.strip() for part in args.classes.split(",")
                   if part.strip()])
    for name in names:
        if name not in FAULT_CLASSES:
            raise ReproError(
                f"unknown fault class {name!r}; expected one of "
                f"{', '.join(FAULT_CLASSES)}")
    reports = []
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            path = args.db or os.path.join(tmp, "chaos.db")
            # A reused database accumulates storm models; a unique
            # model name keeps each storm's count arithmetic clean.
            model = (f"chaos_{name}_{os.getpid()}_{int(time.time())}"
                     if args.db else "chaos")
            injector = FaultInjector(seed=args.seed)
            arm_faults(injector, name, chance=args.chance,
                       delay=args.delay)
            config = ServerConfig(
                path=path, workers=args.workers,
                backlog=args.workers * 2, faults=injector,
                pool_timeout=1.0, retry_after=0.05,
                result_cache=bool(args.result_cache))
            with ReproServer(config) as server:
                host, port = server.address
                report = run_storm(
                    host, port, fault_class=name, seed=args.seed,
                    requests=args.requests, workers=args.threads,
                    model=model, faults=injector)
            reports.append(report)
            if not args.json:
                print(report.render(), file=out)
    if args.json:
        print(json.dumps([report.as_dict() for report in reports],
                         indent=2), file=out)
    failed = [report for report in reports if not report.ok]
    if failed:
        print(f"chaos: {len(failed)}/{len(reports)} storms FAILED",
              file=out)
        return 1
    if not args.json:
        print(f"chaos: all {len(reports)} storms passed", file=out)
    return 0


def _slowlog(args: argparse.Namespace, out) -> int:
    """``repro slowlog URL [--trace ID [--chrome]]``."""
    import json
    import urllib.parse

    from repro.server.client import ReproClient

    parts = urllib.parse.urlsplit(
        args.url if "//" in args.url else f"http://{args.url}")
    if not parts.hostname or not parts.port:
        raise ReproError(
            f"slowlog needs a host:port URL, got {args.url!r}")
    with ReproClient(parts.hostname, parts.port) as client:
        if args.trace is not None:
            payload = client.debug_trace(args.trace,
                                         chrome=args.chrome)
            if args.chrome or args.json:
                print(json.dumps(payload, indent=2), file=out)
            else:
                _print_trace(payload, out)
            return 0
        if args.chrome:
            raise ReproError("--chrome needs --trace REQUEST_ID")
        payload = client.debug_slow(limit=args.limit)
        if args.json:
            print(json.dumps(payload, indent=2), file=out)
            return 0
        print(f"slow threshold {payload['threshold_seconds']}s — "
              f"{payload['captured']} captured, "
              f"{payload['retained']} retained, "
              f"{payload['total_requests']} requests total", file=out)
        for entry in payload.get("requests", []):
            print("", file=out)
            _print_trace(entry, out)
    return 0


def _print_trace(entry: dict, out) -> None:
    """Human-readable rendering of one captured request trace."""
    from repro.obs.slowlog import render_span_tree

    print(f"{entry.get('method')} {entry.get('path')}  "
          f"status={entry.get('status')}  "
          f"{float(entry.get('duration', 0.0)) * 1000:.1f} ms  "
          f"id={entry.get('request_id')}", file=out)
    annotations = entry.get("annotations") or {}
    for key in sorted(annotations):
        value = annotations[key]
        if isinstance(value, str) and "\n" in value:
            print(f"  {key}:", file=out)
            for line in value.splitlines():
                print(f"    {line}", file=out)
        else:
            print(f"  {key}={value}", file=out)
    for slow in entry.get("slow_sql") or []:
        print(f"  slow sql {slow.get('seconds')}s: "
              f"{slow.get('statement')}", file=out)
    spans = entry.get("spans") or []
    if spans:
        print("  spans:", file=out)
        for line in render_span_tree(spans):
            print(f"  {line}", file=out)


def _generate_uniprot(args: argparse.Namespace, out) -> int:
    import itertools

    from repro.rdf.ntriples import serialize_ntriples
    from repro.rdf.reification_vocab import expand_quad
    from repro.rdf.terms import URI
    from repro.workloads.uniprot import UniProtGenerator

    generator = UniProtGenerator(seed=args.seed)
    with open(args.file, "w", encoding="utf-8") as stream:
        serialize_ntriples(generator.triples(args.triples), out=stream)
        quad_count = 0
        if args.with_quads:
            counter = itertools.count(1)
            for base in generator.reified_statements(args.triples):
                resource = URI(f"urn:repro:reif:{next(counter)}")
                serialize_ntriples(expand_quad(resource, base),
                                   out=stream)
                quad_count += 1
    message = f"wrote {args.triples} triples"
    if args.with_quads:
        message += f" + {quad_count} reification quads"
    print(f"{message} to {args.file}", file=out)
    return 0


def _dispatch_store(args: argparse.Namespace, store: RDFStore,
                    out) -> int:
    command = args.command
    if command == "create-model":
        info = store.create_model(args.model)
        print(f"created model {info.model_name!r} "
              f"(MODEL_ID={info.model_id})", file=out)
        return 0
    if command == "load":
        report = bulk_load_ntriples(store, args.model, args.file)
        print(f"staged {report.staged}, new values "
              f"{report.new_values}, new triples {report.new_links}, "
              f"duplicates {report.duplicate_triples}", file=out)
        return 0
    if command == "insert":
        obj = store.insert_triple(args.model, args.subject,
                                  args.predicate, args.object)
        print(str(obj), file=out)
        return 0
    if command == "query":
        rows = sdo_rdf_match(
            store, args.patterns, args.models.split(","),
            rulebases=[r for r in args.rulebases.split(",") if r],
            aliases=_parse_aliases(args.alias), filter=args.filter)
        for row in rows:
            print("  ".join(f"{name}={row[name]}"
                            for name in row.keys()), file=out)
        print(f"({len(rows)} rows)", file=out)
        return 0
    if command == "explain":
        import json

        explanation = sdo_rdf_match(
            store, args.patterns, args.models.split(","),
            rulebases=[r for r in args.rulebases.split(",") if r],
            aliases=_parse_aliases(args.alias), filter=args.filter,
            order_by=args.order_by, limit=args.limit,
            explain=True, optimize=not args.naive)
        if args.json:
            print(json.dumps(explanation.as_dict(), indent=2,
                             sort_keys=True, default=str), file=out)
        else:
            print(explanation.render(), file=out)
        return 0
    if command == "reify":
        link = store.find_link(args.model, args.subject,
                               args.predicate, args.object)
        if link is None:
            print("error: no such triple", file=out)
            return 1
        reif = store.reify_triple(args.model, link.link_id)
        print(reif.get_subject(), file=out)
        return 0
    if command == "is-reified":
        answer = store.is_reified(args.model, args.subject,
                                  args.predicate, args.object)
        print("true" if answer else "false", file=out)
        return 0 if answer else 2
    if command == "models":
        for info in store.models:
            count = store.links.count(info.model_id)
            print(f"{info.model_name}  (MODEL_ID={info.model_id}, "
                  f"{count} triples)", file=out)
        return 0
    if command == "rules-index":
        return _rules_index(args, store, out)
    if command == "trace":
        return _trace(args, store, out)
    if command == "stats":
        return _stats(args, store, out)
    if command == "path":
        return _path(args, store, out)
    if command == "export":
        from repro.core.export import export_model_to_file

        count = export_model_to_file(
            store, args.model, args.file,
            expand_reification=args.expand_reification)
        print(f"wrote {count} triples to {args.file}", file=out)
        return 0
    if command == "check":
        from repro.core.integrity import check_integrity

        violations = check_integrity(store)
        for violation in violations:
            print(str(violation), file=out)
        print(f"({len(violations)} violations)", file=out)
        return 0 if not violations else 3
    if command == "doctor":
        return _doctor(store, out)
    raise ReproError(f"unknown command {command!r}")


def _rules_index(args: argparse.Namespace, store: RDFStore, out) -> int:
    """``repro rules-index status|maintain [NAME]``."""
    import json

    manager = store.rules_indexes
    if args.name is not None:
        indexes = [manager.get(args.name)]
    else:
        indexes = manager.list_indexes()
    if args.action == "status":
        report = []
        for index in indexes:
            stale = manager.is_stale(index.index_name)
            report.append({
                "index_name": index.index_name,
                "models": list(index.model_names),
                "rulebases": list(index.rulebase_names),
                "maintain": index.maintain,
                "inferred_count": index.inferred_count,
                "stale": stale,
            })
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True), file=out)
        else:
            for entry in report:
                print(f"{entry['index_name']}  "
                      f"models={','.join(entry['models'])}  "
                      f"rulebases={','.join(entry['rulebases'])}  "
                      f"maintain={entry['maintain']}  "
                      f"inferred={entry['inferred_count']}  "
                      f"{'STALE' if entry['stale'] else 'fresh'}",
                      file=out)
            if not report:
                print("(no rules indexes)", file=out)
        return 0 if not any(entry["stale"] for entry in report) else 4
    # maintain
    results = []
    for index in indexes:
        worked = manager.maintain(index.index_name)
        results.append({"index_name": index.index_name,
                        "rebuilt": worked})
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True), file=out)
    else:
        for entry in results:
            verb = "rebuilt" if entry["rebuilt"] else "already fresh"
            print(f"{entry['index_name']}  {verb}", file=out)
        if not results:
            print("(no rules indexes)", file=out)
    return 0


def _doctor(store: RDFStore, out) -> int:
    """Engine-level and schema-level health check; exit 3 on problems."""
    from repro.core.integrity import check_integrity

    db = store.database
    problems = 0
    engine_rows = [row[0] for row in
                   db.query_all("PRAGMA integrity_check")]
    if engine_rows != ["ok"]:
        for message in engine_rows:
            print(f"[integrity_check] {message}", file=out)
        problems += len(engine_rows)
    for row in db.query_all("PRAGMA foreign_key_check"):
        print(f"[foreign-key] table={row[0]} rowid={row[1]} "
              f"references {row[2]}", file=out)
        problems += 1
    violations = check_integrity(store)
    for violation in violations:
        print(str(violation), file=out)
    problems += len(violations)
    if problems:
        print(f"({problems} problems found)", file=out)
        return 3
    print(f"ok: engine integrity, foreign keys, and "
          f"{db.row_count('rdf_link$')} triples all clean "
          f"(durability={db.durability})", file=out)
    return 0


def _path(args: argparse.Namespace, store: RDFStore, out) -> int:
    from repro.rdf.terms import parse_term_text

    values = store.values
    node_ids = []
    for text in (args.source, args.target):
        value_id = values.find_id(parse_term_text(text))
        if value_id is None:
            print(f"error: {text!r} is not in the store", file=out)
            return 1
        node_ids.append(value_id)
    analyzer = NetworkAnalyzer(store.network(args.model),
                               undirected=args.undirected)
    source_id, target_id = node_ids
    if not analyzer.has_node(source_id) or not \
            analyzer.has_node(target_id):
        print("error: resource is not a node of this model", file=out)
        return 1
    found = analyzer.shortest_path(source_id, target_id)
    if found is None:
        print("no path", file=out)
        return 2
    print(" -> ".join(values.get_lexical(node) for node in found.nodes),
          file=out)
    print(f"(cost {found.cost:g}, {len(found)} hops)", file=out)
    return 0


def _trace(args: argparse.Namespace, store: RDFStore, out) -> int:
    import json

    rows = sdo_rdf_match(
        store, args.patterns, args.models.split(","),
        rulebases=[r for r in args.rulebases.split(",") if r],
        aliases=_parse_aliases(args.alias))
    observer = store.observer
    if args.chrome:
        from repro.obs.slowlog import chrome_trace_events

        events = chrome_trace_events(
            [span.as_dict()
             for span in observer.tracer.last(args.last)],
            label=f"repro trace {args.patterns}")
        print(json.dumps(events, indent=2), file=out)
        return 0
    if args.json:
        payload = observer.snapshot(last_spans=args.last)
        payload["rows"] = len(rows)
        print(json.dumps(payload, indent=2, sort_keys=True,
                         default=repr), file=out)
        return 0
    print(f"({len(rows)} rows)", file=out)
    print("", file=out)
    print(f"spans (last {args.last}):", file=out)
    for span in observer.tracer.last(args.last):
        attrs = " ".join(f"{key}={value}"
                         for key, value in span.attributes.items())
        indent = "  " * (span.depth + 1)
        line = f"{indent}{span.name}  {span.duration * 1000:.3f} ms"
        if attrs:
            line += f"  [{attrs}]"
        print(line, file=out)
    if observer.sql is not None:
        print("", file=out)
        print("top SQL statements (by total time):", file=out)
        for stats in observer.sql.statements(top=10):
            print(f"  {stats.count:>5}x  {stats.total_time * 1000:8.3f} ms"
                  f"  rows={stats.rows:<6}  {stats.statement}", file=out)
    return 0


def _stats(args: argparse.Namespace, store: RDFStore, out) -> int:
    import dataclasses
    import json

    from repro.core.statistics import gather_statistics

    if args.prometheus:
        print(store.observer.metrics.prometheus_text(), file=out)
        return 0
    statistics = gather_statistics(store, args.model)
    network = store.network(args.model)
    components: list = []
    if network.link_count():
        analyzer = NetworkAnalyzer(network, undirected=True)
        components = analyzer.components()
    if args.json:
        from repro.server.state import read_write_version

        payload: dict = {
            "statistics": dataclasses.asdict(statistics),
            "network": {
                "nodes": network.node_count(),
                "links": network.link_count(),
                "components": len(components),
                "largest_component": (len(components[0])
                                      if components else 0),
            },
            "versions": {
                "data_version": store.database.data_version,
                "write_version": read_write_version(store.database),
            },
        }
        if store.observer.enabled:
            payload["observability"] = store.observer.snapshot()
        print(json.dumps(payload, indent=2, sort_keys=True,
                         default=repr), file=out)
        return 0
    for line in statistics.lines():
        print(line, file=out)
    print(f"network nodes: {network.node_count()}", file=out)
    print(f"network links: {network.link_count()}", file=out)
    if components:
        print(f"components: {len(components)} "
              f"(largest {len(components[0])})", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

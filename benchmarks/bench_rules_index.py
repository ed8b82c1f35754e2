"""ABL-RULES-INDEX: incremental vs rebuild maintenance.

The paper's rules indexes are built once; the incremental maintenance
layer (``maintain="incremental"``) keeps them fresh across writes with
semi-naïve delta propagation instead of a full closure re-run.  This
benchmark quantifies the difference: single-triple inserts into a
``size``-triple chain model covered by a join-rule index, timed under

* **incremental** — the write-path hook runs ``apply_delta`` inside
  the insert transaction (O(affected derivations));
* **rebuild** — the insert is followed by a full index rebuild, the
  only way to stay fresh without delta maintenance.

Standalone: ``python benchmarks/bench_rules_index.py`` writes
``BENCH_rules_index.json`` with per-write latencies and the speedup.
``--smoke`` keeps it CI-quick.
"""

try:
    from repro.bench.harness import Timer
except ImportError:  # script mode: python benchmarks/bench_rules_index.py
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    from repro.bench.harness import Timer

from repro.core.store import RDFStore
from repro.inference.sdo_rdf_inference import SDO_RDF_INFERENCE

MODEL = "chain"
RULEBASE = "chain_rb"
INDEX = "chain_ix"

DEFAULT_SIZE = 50_000
SMOKE_SIZE = 5_000


def _node(i):
    return f"<urn:n{i}>"


def _build_store(size):
    """A chain model n0 -p-> n1 -p-> ... with a one-join rule."""
    from repro.core.bulkload import BulkLoader
    from repro.rdf.terms import URI
    from repro.rdf.triple import Triple

    store = RDFStore()
    store.create_model(MODEL)
    predicate = URI("urn:p")
    BulkLoader(store, MODEL).load(
        Triple(URI(f"urn:n{i}"), predicate, URI(f"urn:n{i + 1}"))
        for i in range(size))
    inference = SDO_RDF_INFERENCE(store)
    inference.create_rulebase(RULEBASE)
    inference.insert_rule(
        RULEBASE, "hop2",
        "(?a <urn:p> ?b) (?b <urn:p> ?c)", None, "(?a <urn:q> ?c)")
    return store, inference


def _timed_inserts(store, start, count):
    """Per-insert wall times (ms) for ``count`` chain extensions."""
    import time

    samples = []
    for k in range(count):
        i = start + k
        begin = time.perf_counter()
        store.insert_triple(MODEL, _node(i), "<urn:p>", _node(i + 1))
        samples.append((time.perf_counter() - begin) * 1000.0)
    return samples


def run_rules_index_benchmark(size, trials, rebuild_trials):
    """Time maintained single-triple writes; return the report dict."""
    import time

    # --- incremental ---------------------------------------------------
    store, inference = _build_store(size)
    try:
        begin = time.perf_counter()
        index = inference.create_rules_index(
            INDEX, [MODEL], [RULEBASE], maintain="incremental")
        build_ms = (time.perf_counter() - begin) * 1000.0
        inferred_at_build = index.inferred_count
        incremental = _timed_inserts(store, size, trials)
        manager = store.rules_indexes
        assert not manager.is_stale(INDEX), \
            "incremental index went stale under maintained writes"
        inferred_after = manager.get(INDEX).inferred_count
    finally:
        store.close()

    # --- rebuild baseline ----------------------------------------------
    store, inference = _build_store(size)
    try:
        inference.create_rules_index(INDEX, [MODEL], [RULEBASE],
                                     maintain="manual")
        manager = store.rules_indexes
        rebuild = []
        for k in range(rebuild_trials):
            i = size + k
            begin = time.perf_counter()
            store.insert_triple(MODEL, _node(i), "<urn:p>",
                                _node(i + 1))
            manager.rebuild(INDEX)
            rebuild.append((time.perf_counter() - begin) * 1000.0)
    finally:
        store.close()

    # The harness's linear-interpolation quantiles, over ms samples.
    incremental_ms = Timer("incremental_write_ms", incremental)
    rebuild_ms = Timer("rebuild_write_ms", rebuild)
    incremental_mean, rebuild_mean = incremental_ms.mean, rebuild_ms.mean
    return {
        "dataset": {"size": size, "model": MODEL,
                    "rule": "(?a p ?b)(?b p ?c) -> (?a q ?c)",
                    "trials": trials,
                    "rebuild_trials": rebuild_trials},
        "index": {"build_ms": round(build_ms, 3),
                  "inferred_at_build": inferred_at_build,
                  "inferred_after_writes": inferred_after},
        "incremental_write_ms": {
            "mean": round(incremental_mean, 4),
            "p50": round(incremental_ms.p50, 4),
            "p95": round(incremental_ms.p95, 4),
        },
        "rebuild_write_ms": {
            "mean": round(rebuild_mean, 4),
            "p50": round(rebuild_ms.p50, 4),
            "p95": round(rebuild_ms.p95, 4),
        },
        "speedup_mean": round(rebuild_mean / incremental_mean, 2)
        if incremental_mean else None,
    }


def main(argv=None):
    import argparse
    import json
    import pathlib

    parser = argparse.ArgumentParser(
        description="rules-index incremental vs rebuild maintenance "
        "benchmark")
    parser.add_argument("--size", type=int, default=None,
                        help=f"chain triples (default {DEFAULT_SIZE})")
    parser.add_argument("--trials", type=int, default=50,
                        help="timed incremental writes")
    parser.add_argument("--rebuild-trials", type=int, default=3,
                        help="timed insert+rebuild writes")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI mode: {SMOKE_SIZE}-triple chain, "
                        "few trials")
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_rules_index.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        size = args.size or SMOKE_SIZE
        trials = min(args.trials, 10)
        rebuild_trials = min(args.rebuild_trials, 2)
    else:
        size = args.size or DEFAULT_SIZE
        trials = args.trials
        rebuild_trials = args.rebuild_trials
    report = run_rules_index_benchmark(size, trials, rebuild_trials)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"chain size          {size}")
    print(f"index build         "
          f"{report['index']['build_ms']:10.1f}ms  "
          f"({report['index']['inferred_at_build']} inferred)")
    print(f"incremental write   "
          f"{report['incremental_write_ms']['mean']:10.3f}ms mean")
    print(f"rebuild write       "
          f"{report['rebuild_write_ms']['mean']:10.3f}ms mean")
    print(f"speedup             {report['speedup_mean']}x")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

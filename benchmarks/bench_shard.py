"""SHARD: partitioned ``rdf_link$`` write throughput and scatter reads.

The sharded engine (``RDFStore(shards=N)``) partitions ``rdf_link$``
across N SQLite files, one writer queue per shard.  This bench measures
the two sides of that trade:

* **Transactional writes** (``write_*``, the headline): single-triple
  transactions against a pre-populated store under the ``paranoid``
  durability profile, whose per-commit ``PRAGMA foreign_key_check``
  sweep scales with the size of the *file* it runs in.  Partitioning
  bounds that sweep to one shard (1/N of the rows), so the aggregate
  write rate grows with the shard count on any hardware — this is the
  partition-local constraint-verification win, independent of core
  count.  Target: >= 2x at 4 shards.

* **Bulk loads** (``bulk_load_*``): the staged set-wise loader fanned
  out per shard.  The per-shard loads overlap only where the work
  releases the GIL (SQLite C calls) or waits on I/O, so this number is
  hardware-dependent: ~1x on a single-core container, rising with
  cores and fsync latency.  Reported, not gated.

* **Scatter-gather reads** (``match_*``): anchored (one shard) vs
  unanchored (all shards + Python merge) latency, with the single-file
  store as the reference — the price of partitioning on reads.

Standalone: ``python benchmarks/bench_shard.py [--smoke]`` writes
``BENCH_shard.json`` to the repo root.  CI gates the smoke run's
``write_speedup_4_over_1`` >= 1.5x.
"""

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # script mode
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core.bulkload import BulkLoader  # noqa: E402
from repro.core.store import RDFStore  # noqa: E402
from repro.inference.match import sdo_rdf_match  # noqa: E402
from repro.workloads.uniprot import (  # noqa: E402
    PROBE_SUBJECT,
    UniProtGenerator,
)

MODEL = "uniprot"
SHARDS = 4


def _percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def _fresh_triples(count, tag):
    """Write-phase triples disjoint from the preloaded dataset."""
    from repro.rdf.triple import Triple

    return [Triple.from_text(f"<urn:bench:{tag}:s{i}>",
                             f"<urn:bench:p{i % 17}>",
                             f'"payload {tag} {i}"')
            for i in range(count)]


def _build_store(path, durability, shards, size):
    kwargs = {"shards": shards} if shards > 1 else {}
    store = RDFStore(path, durability=durability, **kwargs)
    store.create_model(MODEL)
    dataset = list(UniProtGenerator().triples(size))
    if shards > 1:
        store.bulk_load(MODEL, dataset)
    else:
        BulkLoader(store, MODEL).load(dataset)
    return store


# ----------------------------------------------------------------------
# transactional writes (paranoid): partition-local foreign_key_check
# ----------------------------------------------------------------------

def _txn_write_rate_single(store, triples):
    start = time.perf_counter()
    for triple in triples:
        store.insert_triple_obj(MODEL, triple)
    return len(triples) / (time.perf_counter() - start)


def _txn_write_rate_sharded(store, triples):
    """Independent single-triple transactions, pipelined through the
    per-shard writer queues (each commit verifies only its shard)."""
    def job_for(triple):
        def job(shard_store):
            info = shard_store.models.get(MODEL)
            return shard_store.parser.insert(info, triple)
        return job

    start = time.perf_counter()
    futures = [store.submit(store.shard_of_triple(MODEL, triple),
                            job_for(triple))
               for triple in triples]
    for future in futures:
        future.result()
    return len(triples) / (time.perf_counter() - start)


def _bench_txn_writes(tmp, size, trials):
    single = _build_store(f"{tmp}/txn-single.db", "paranoid", 1, size)
    try:
        rps_1 = _txn_write_rate_single(
            single, _fresh_triples(trials, "txn1"))
    finally:
        single.close()
    sharded = _build_store(f"{tmp}/txn-sharded.db", "paranoid",
                           SHARDS, size)
    try:
        rps_n = _txn_write_rate_sharded(
            sharded, _fresh_triples(trials, "txnN"))
    finally:
        sharded.close()
    return {
        "durability": "paranoid",
        "preloaded_triples": size,
        "transactions": trials,
        "write_rps_1_shard": round(rps_1, 1),
        f"write_rps_{SHARDS}_shards": round(rps_n, 1),
        f"write_speedup_{SHARDS}_over_1": round(rps_n / rps_1, 2),
    }


# ----------------------------------------------------------------------
# bulk loads (durable): staged loader fan-out
# ----------------------------------------------------------------------

def _bench_bulk_loads(tmp, size):
    dataset = list(UniProtGenerator().triples(size))
    with RDFStore(f"{tmp}/bulk-single.db",
                  durability="durable") as store:
        store.create_model(MODEL)
        start = time.perf_counter()
        BulkLoader(store, MODEL).load(dataset)
        rps_1 = size / (time.perf_counter() - start)
    with RDFStore(f"{tmp}/bulk-sharded.db", shards=SHARDS,
                  durability="durable") as store:
        store.create_model(MODEL)
        start = time.perf_counter()
        store.bulk_load(MODEL, dataset)
        rps_n = size / (time.perf_counter() - start)
    return {
        "durability": "durable",
        "triples": size,
        "bulk_load_rps_1_shard": round(rps_1, 0),
        f"bulk_load_rps_{SHARDS}_shards": round(rps_n, 0),
        f"bulk_load_speedup_{SHARDS}_over_1": round(rps_n / rps_1, 2),
    }


# ----------------------------------------------------------------------
# scatter-gather reads
# ----------------------------------------------------------------------

def _time_match(store, query, trials):
    sdo_rdf_match(store, query, [MODEL])  # warm caches
    samples = []
    for _ in range(trials):
        start = time.perf_counter()
        rows = sdo_rdf_match(store, query, [MODEL])
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples, len(rows)


def _bench_match(tmp, size, trials):
    anchored = f"(<{PROBE_SUBJECT}> ?p ?o)"
    unanchored = "(?s rdfs:seeAlso ?o)"
    with RDFStore(f"{tmp}/match-single.db",
                  durability="durable") as store:
        store.create_model(MODEL)
        BulkLoader(store, MODEL).load(
            UniProtGenerator().triples(size))
        ref_anchored, rows_a = _time_match(store, anchored, trials)
        ref_scan, rows_u = _time_match(store, unanchored, trials)
    with RDFStore(f"{tmp}/match-sharded.db", shards=SHARDS,
                  durability="durable") as store:
        store.create_model(MODEL)
        store.bulk_load(MODEL, list(UniProtGenerator().triples(size)))
        sh_anchored, sh_rows_a = _time_match(store, anchored, trials)
        sh_scan, sh_rows_u = _time_match(store, unanchored, trials)
    assert rows_a == sh_rows_a and rows_u == sh_rows_u, \
        "sharded match returned different row counts"
    anchored_p50 = _percentile(sh_anchored, 0.5)
    scatter_p50 = _percentile(sh_scan, 0.5)
    ref_scan_p50 = _percentile(ref_scan, 0.5)
    return {
        "triples": size,
        "trials": trials,
        "anchored_rows": rows_a,
        "unanchored_rows": rows_u,
        "single_file_anchored_ms": {
            "p50": round(_percentile(ref_anchored, 0.5), 4),
            "p95": round(_percentile(ref_anchored, 0.95), 4)},
        "single_file_unanchored_ms": {
            "p50": round(ref_scan_p50, 4),
            "p95": round(_percentile(ref_scan, 0.95), 4)},
        "sharded_anchored_ms": {
            "p50": round(anchored_p50, 4),
            "p95": round(_percentile(sh_anchored, 0.95), 4)},
        "sharded_scatter_ms": {
            "p50": round(scatter_p50, 4),
            "p95": round(_percentile(sh_scan, 0.95), 4)},
        # scatter cost relative to the single-file plan for the same
        # unanchored query (lower is better; 1.0 = free).
        "scatter_overhead_p50": round(
            scatter_p50 / ref_scan_p50, 2) if ref_scan_p50 else None,
    }


def run_shard_benchmark(size, trials):
    tmp = tempfile.mkdtemp(prefix="bench-shard-")
    try:
        report = {
            "dataset": {"size": size, "trials": trials,
                        "model": MODEL, "shards": SHARDS},
            "txn_writes": _bench_txn_writes(
                tmp, size, max(40, trials)),
            "bulk_loads": _bench_bulk_loads(tmp, size),
            "match": _bench_match(tmp, size, trials),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sharded-engine write/read benchmark")
    parser.add_argument("--size", type=int, default=None,
                        help="preloaded dataset triples")
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small dataset, few trials")
    parser.add_argument("--output",
                        default=str(_ROOT / "BENCH_shard.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        size = args.size or 12_000
        trials = min(args.trials, 20)
    else:
        size = args.size or 60_000
        trials = args.trials
    report = run_shard_benchmark(size, trials)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(report, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    txn = report["txn_writes"]
    bulk = report["bulk_loads"]
    match = report["match"]
    print(f"txn writes (paranoid, {size} preloaded): "
          f"1 shard {txn['write_rps_1_shard']}/s  "
          f"{SHARDS} shards {txn[f'write_rps_{SHARDS}_shards']}/s  "
          f"speedup {txn[f'write_speedup_{SHARDS}_over_1']}x")
    print(f"bulk load (durable): "
          f"1 shard {bulk['bulk_load_rps_1_shard']}/s  "
          f"{SHARDS} shards {bulk[f'bulk_load_rps_{SHARDS}_shards']}/s  "
          f"speedup {bulk[f'bulk_load_speedup_{SHARDS}_over_1']}x")
    print(f"match: anchored p50 "
          f"{match['sharded_anchored_ms']['p50']}ms  scatter p50 "
          f"{match['sharded_scatter_ms']['p50']}ms  overhead "
          f"{match['scatter_overhead_p50']}x of single-file")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

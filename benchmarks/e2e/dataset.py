"""Seeded inputs, the plain-Python oracle, and the store builder.

Everything the program is asked is generated here from ``--seed``; the
program only ever sees the generated N-Triples file and query strings.
The oracle is derived from the generated triples without touching the
store, so a wrong answer from any layer shows up as a failed operation.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from itertools import accumulate

from repro import RDFStore
from repro.core.bulkload import bulk_load_ntriples
from repro.db.connection import Database
from repro.reification.naive import NaiveReificationStore
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.workloads.uniprot import (
    PROBE_FANOUT,
    PROBE_SUBJECT,
    UNIPROT,
    UniProtGenerator,
    paper_reified_count,
)

MODEL = "up"
MODELS = [MODEL]
CURATED_BY = "urn:bench:curatedBy"
CURATORS = 50
#: Reifications per transaction while building the store.
REIFY_BATCH = 500
#: Triples in the full and the ``--smoke`` dataset.  100 000 triples
#: (~6 200 subjects, ~36 MB file) is 17x SQLite's default page cache and
#: 24x more distinct lookups than the 256-entry plan cache, and builds
#: in ~5 s, which keeps one run inside the driver's 30 s average.
FULL_TRIPLES = 100_000
SMOKE_TRIPLES = 3_000

#: Zipf exponent of the subject draw.  The issue asked for 1.1 over
#: ~20 k subjects, where about half the lookups miss the 256-entry plan
#: cache.  Over this dataset's ~6 200 subjects 1.1 puts the hit ratio at
#: 0.55-0.6, i.e. the *median* lookup on the boundary between the hit
#: and the miss mode, and op_p50_us then swings 20 % between seeds.  0.8
#: restores "most lookups recompile" (hit ratio ~0.27) and puts the
#: median firmly inside the miss mode.
ZIPF_S = 0.8
#: Operations in one generated schedule; a phase that outlasts it wraps.
SCHEDULE_OPS = 1 << 16
ANALYTIC_ROTATIONS = 200
ANALYTIC_POOL = 20
SHAPES = ("pred_scan", "star3", "like_filter", "reif_join", "order_limit")
ORDER_LIMIT = 100
#: Open-loop arrival rate (requests per second) and the longest run a
#: schedule covers.
SERVE_RATE = 300.0
SERVE_MAX_SECONDS = 60.0

_SEE_ALSO = RDFS.seeAlso.value
_TYPE = RDF.type.value
_STATEMENT = RDF.Statement.value
_ORGANISM = UNIPROT.organism.value
_KEYWORD = UNIPROT.keyword.value
_NAME = UNIPROT.name.value
_CREATED = UNIPROT.created.value
_PROTEIN = UNIPROT.Protein.value


def _pairs_hash(pairs) -> tuple[int, int]:
    """(count, order-free hash) of an iterable of tuples."""
    digest = 0
    count = 0
    for pair in pairs:
        digest ^= hash(pair)
        count += 1
    return count, digest


def row_hash(rows, names: tuple[str, ...]) -> tuple[int, int]:
    """``_pairs_hash`` of result rows; works on ``MatchRow`` objects and
    on the JSON dicts the server returns."""
    return _pairs_hash(tuple(row[name] for name in names) for row in rows)


class Dataset:
    """The generated triples (as an N-Triples file) and their oracle."""

    def __init__(self, seed: int, triple_count: int, nt_path: str) -> None:
        self.seed = seed
        self.triple_count = triple_count
        self.nt_path = nt_path
        #: subject -> [row count, xor-hash of its (p, o) lexical pairs]
        self.rows: dict[str, list[int]] = {}
        self.organism: dict[str, str] = {}
        self.keywords: dict[str, set[str]] = {}
        self.name: dict[str, str] = {}
        self.created: dict[str, str] = {}
        self.see_also: list[tuple[str, str]] = []
        with open(nt_path, "w", encoding="utf-8") as out:
            serialize_ntriples(self._recorded(
                UniProtGenerator(seed).triples(triple_count)), out)
        self.subjects = list(self.rows)
        #: The statements reified in the store: (subject, object) of the
        #: first ``paper_reified_count`` rdfs:seeAlso triples; statement
        #: k carries provenance from curator k % CURATORS.
        self.reified = self.see_also[:paper_reified_count(triple_count)]
        self.taxa = sorted(set(self.organism.values()))
        self.keyword_ids = sorted(set().union(*self.keywords.values()))
        if self.rows[PROBE_SUBJECT][0] != PROBE_FANOUT:
            raise RuntimeError("oracle: the paper's probe subject must "
                               f"have {PROBE_FANOUT} rows")

    def _recorded(self, triples):
        """Pass the generated triples through, noting what the oracle
        needs of each."""
        for triple in triples:
            subject = triple.subject.value
            predicate = triple.predicate.value
            obj = triple.object.lexical
            entry = self.rows.setdefault(subject, [0, 0])
            entry[0] += 1
            entry[1] ^= hash((predicate, obj))
            if predicate == _SEE_ALSO:
                self.see_also.append((subject, obj))
            elif predicate == _ORGANISM:
                self.organism[subject] = obj
            elif predicate == _KEYWORD:
                self.keywords.setdefault(subject, set()).add(obj)
            elif predicate == _NAME:
                self.name[subject] = obj
            elif predicate == _CREATED:
                self.created[subject] = obj
            yield triple

    # -- query text ----------------------------------------------------

    @staticmethod
    def lookup_query(subject: str) -> str:
        return f"(<{subject}> ?p ?o)"

    @staticmethod
    def reified_query() -> str:
        """Every reification statement of the model."""
        return f"(?r <{_TYPE}> <{_STATEMENT}>)"

    def analytic_query(self, shape: str, const) -> dict:
        """The ``sdo_rdf_match`` arguments of one analytic operation."""
        if shape == "pred_scan":
            return {"query": f"(?s <{_ORGANISM}> <{const}>)"}
        if shape == "star3":
            tax, keyword = const
            return {"query": f"(?s <{_ORGANISM}> <{tax}>)"
                             f"(?s <{_KEYWORD}> <{keyword}>)"
                             f"(?s <{_NAME}> ?n)"}
        if shape == "like_filter":
            return {"query": f"(?s <{_SEE_ALSO}> ?o)",
                    "filter": f'?o LIKE "%smart:X0{const:02d}%"'}
        if shape == "reif_join":
            return {"query": f"{self.reified_query()}"
                             f"(<urn:bench:curator:{const}> "
                             f"<{CURATED_BY}> ?r)"}
        return {"query": f"(?s <{_CREATED}> ?d)", "order_by": "d",
                "limit": ORDER_LIMIT}

    # -- oracle --------------------------------------------------------

    def analytic_names(self, shape: str) -> tuple[str, ...]:
        return {"pred_scan": ("s",), "star3": ("s", "n"),
                "like_filter": ("s", "o"), "reif_join": ("r",)}[shape]

    def analytic_expected(self, shape: str, const) -> tuple[int, int | None]:
        """(row count, row hash or None) the oracle expects.  The
        ``reif_join`` rows are DBUris whose LINK_IDs the store assigns,
        so only their count is known here; the reified set is resolved
        back through its DBUris after the timed phase."""
        if shape == "pred_scan":
            return _pairs_hash((s,) for s, tax in self.organism.items()
                               if tax == const)
        if shape == "star3":
            tax, keyword = const
            return _pairs_hash(
                (s, self.name[s]) for s, found in self.organism.items()
                if found == tax and keyword in self.keywords.get(s, ())
                and s in self.name)
        if shape == "like_filter":
            needle = f"smart:x0{const:02d}"
            return _pairs_hash(pair for pair in self.see_also
                               if needle in pair[1].lower())
        if shape == "reif_join":
            return len(range(const, len(self.reified), CURATORS)), None
        # ORDER BY ?d LIMIT n: ties at the cut make the subjects
        # ambiguous, the multiset of dates is not.
        dates = sorted(self.created.values())[:ORDER_LIMIT]
        return _pairs_hash((d, i) for i, d in enumerate(dates))

    @staticmethod
    def order_limit_hash(rows) -> tuple[int, int]:
        """Row hash of an ``order_limit`` answer, position included, so
        a result in the wrong order fails."""
        return _pairs_hash((row["d"], i) for i, row in enumerate(rows))

    def curator_of(self, index: int) -> str:
        return f"urn:bench:curator:{index % CURATORS}"

    # -- schedules -----------------------------------------------------

    def zipf_subjects(self, rng: random.Random, count: int) -> list[str]:
        """``count`` subjects drawn Zipf(ZIPF_S) over a seeded ranking
        of every subject."""
        ranked = list(self.subjects)
        rng.shuffle(ranked)
        weights = list(accumulate(
            1.0 / rank ** ZIPF_S for rank in range(1, len(ranked) + 1)))
        return rng.choices(ranked, cum_weights=weights, k=count)

    def point_schedule(self) -> list[tuple[str, object]]:
        """65 % subject_lookup, 25 % is_reified (half true, half
        false), 10 % provenance."""
        rng = random.Random(f"{self.seed}:point_zipf")
        subjects = self.zipf_subjects(rng, SCHEDULE_OPS)
        kinds = rng.choices(
            ("lookup", "reified_true", "reified_false", "provenance"),
            cum_weights=(65, 77.5, 90, 100), k=SCHEDULE_OPS)
        ops = []
        for kind, subject in zip(kinds, subjects):
            if kind in ("lookup", "reified_false"):
                ops.append((kind, subject))
            else:
                ops.append((kind, rng.randrange(len(self.reified))))
        return ops

    def analytic_schedule(self) -> list[tuple[str, object]]:
        """A fixed rotation of the five shapes.  Each shape rotates
        through a seeded pool of ANALYTIC_POOL constants, so the whole
        schedule holds fewer distinct queries than the plan cache has
        entries: after the first rotations every plan is cached."""
        rng = random.Random(f"{self.seed}:analytic_mix")
        pools = {
            "pred_scan": self.taxa,
            "star3": [(rng.choice(self.taxa), rng.choice(self.keyword_ids))
                      for _ in range(ANALYTIC_POOL)],
            "like_filter": rng.sample(range(100), ANALYTIC_POOL),
            "reif_join": rng.sample(range(CURATORS), ANALYTIC_POOL),
            "order_limit": [None],
        }
        return [(shape, rng.choice(pools[shape]))
                for _ in range(ANALYTIC_ROTATIONS) for shape in SHAPES]

    def serve_schedule(self, insert_share: float
                       ) -> list[tuple[float, str, object]]:
        """Poisson arrivals at SERVE_RATE: (due seconds, kind, arg).
        ``insert_share`` of the arrivals insert a fresh subject, the
        rest are subject lookups."""
        rng = random.Random(f"{self.seed}:serve:{insert_share}")
        count = int(SERVE_RATE * SERVE_MAX_SECONDS)
        ops = []
        due = 0.0
        for subject in self.zipf_subjects(rng, count):
            due += rng.expovariate(SERVE_RATE)
            if rng.random() < insert_share:
                ops.append((due, "insert", None))
            else:
                ops.append((due, "lookup", subject))
        return ops


def schedule_sha256(ops) -> str:
    return hashlib.sha256(repr(ops).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# building the store
# ----------------------------------------------------------------------

def checkpointed_size(store: RDFStore) -> int:
    """Main-file bytes once the WAL has been folded back in."""
    store.database.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    return os.path.getsize(store.database.path)


def used_bytes(database: Database) -> int:
    """Bytes in pages that hold data.  The bulk load leaves its emptied
    staging pages on the free list and later writes reuse them, so what
    a batch of writes *added* shows in used pages, not in file size."""
    pages = database.query_value("PRAGMA page_count") \
        - database.query_value("PRAGMA freelist_count")
    return pages * database.query_value("PRAGMA page_size")


def reify_all(store: RDFStore, dataset: Dataset) -> list[float]:
    """Reify every chosen statement and attach its provenance,
    REIFY_BATCH per transaction; returns seconds per statement of each
    batch (find_link + reify_triple + assert_about + the commit)."""
    per_statement = []
    reified = dataset.reified
    for start in range(0, len(reified), REIFY_BATCH):
        batch = reified[start:start + REIFY_BATCH]
        began = time.perf_counter()
        with store.database.transaction():
            for offset, pair in enumerate(batch):
                link = store.find_link(MODEL, *true_probe(pair))
                store.reify_triple(MODEL, link.link_id)
                store.assert_about(
                    MODEL, f"<{dataset.curator_of(start + offset)}>",
                    f"<{CURATED_BY}>", link.link_id)
        per_statement.append((time.perf_counter() - began) / len(batch))
    return per_statement


def naive_reification_bytes(dataset: Dataset, path: str) -> int:
    """Bytes the same reifications (quad + provenance statement) take
    as naive four-triple quads in a sibling file."""
    database = Database(path, durability="durable")
    try:
        naive = NaiveReificationStore(database)
        empty = used_bytes(database)
        see_also = URI(_SEE_ALSO)
        curated_by = URI(CURATED_BY)
        with database.transaction():
            for index, (subject, obj) in enumerate(dataset.reified):
                resource = naive.reify(
                    Triple(URI(subject), see_also, URI(obj)))
                naive.insert_statement(Triple(
                    URI(dataset.curator_of(index)), curated_by, resource))
        return used_bytes(database) - empty
    finally:
        database.close()


def build_store(dataset: Dataset, path: str) -> dict:
    """Bulk-load the N-Triples file into a fresh durable store at
    ``path``, reify, and measure what each step took and stored."""
    store = RDFStore(path, durability="durable")
    try:
        store.create_model(MODEL)
        began = time.perf_counter()
        report = bulk_load_ntriples(store, MODEL, dataset.nt_path)
        load_s = time.perf_counter() - began
        if report.new_links != dataset.triple_count:
            raise RuntimeError(f"bulk load created {report.new_links} "
                               f"links, expected {dataset.triple_count}")
        loaded_bytes = used_bytes(store.database)
        reify_batches = reify_all(store, dataset)
        reified_bytes = used_bytes(store.database) - loaded_bytes
        total_bytes = checkpointed_size(store)
    finally:
        store.close()
    naive_bytes = naive_reification_bytes(dataset, path + ".naive")
    return {
        "load_s": load_s,
        "reify_batches": reify_batches,
        "bytes_per_triple": total_bytes / dataset.triple_count,
        "reif_storage_ratio": reified_bytes / naive_bytes,
    }


def false_probe(subject: str) -> tuple[str, str, str]:
    """A statement that exists and is never reified."""
    return f"<{subject}>", f"<{_TYPE}>", f"<{_PROTEIN}>"


def true_probe(pair: tuple[str, str]) -> tuple[str, str, str]:
    return f"<{pair[0]}>", f"<{_SEE_ALSO}>", f"<{pair[1]}>"

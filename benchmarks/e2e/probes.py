"""Layer probes: fixed-count timings of each layer's public functions.

Every traced run — whatever its workload — ends with this same suite on
a private copy of the store it built, so a probe number is comparable
across workloads and across commits (and the ``control.*`` pair says
whether two reports came from comparable machines at all).  A probe
times calls *into* a layer from here; it adds nothing inside the
program.  A group whose entry point is gone (a later PR deleting a tier)
reports 0 for its metrics and is listed under ``skipped_layers``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import sqlite3
import statistics
from time import perf_counter

from repro import RDFStore
from repro.inference.match import sdo_rdf_match

import serve
from dataset import MODEL, MODELS, SHAPES, Dataset, true_probe
from workloads import InProcess, Run, bulkload_stages

#: Metric names per group; a skipped group reports 0.0 for each.
GROUPS = {
    "control": ("control.sqlite_pk_us", "control.pyloop_ms"),
    "rdf.ntriples": ("rdf.ntriples.parse_us_per_triple",),
    "core.bulkload": (
        "core.bulkload.stage_s", "core.bulkload.merge_values_s",
        "core.bulkload.merge_links_s", "core.bulkload.analyze_s",
        "core.bulkload.residual_share"),
    "core.values": (
        "core.values.find_id_hot_us", "core.values.find_id_cold_us",
        "core.values.lookup_or_insert_us",
        "core.values.get_terms_us_per_term"),
    "core.links": ("core.links.find_us", "core.links.get_us",
                   "core.links.insert_us"),
    "core.store": (
        "core.store.insert_triple_us", "core.store.find_link_us",
        "core.store.is_reified_id_us", "core.store.reify_triple_us",
        "core.store.provenance_us"),
    "db.connection": (
        "db.connection.commit_us", "db.connection.query_all_us_per_row",
        "db.connection.checkpoint_s", "db.connection.wal_bytes_per_insert"),
    "inference.patterns": ("inference.patterns.parse1_us",
                           "inference.patterns.parse3_us"),
    "inference.plan": (
        "inference.plan.plan_key_us", "inference.plan.build_plan1_us",
        "inference.plan.build_plan3_us"),
    "inference.match": (
        "inference.match.pred_scan_ms", "inference.match.star3_ms",
        "inference.match.like_filter_ms", "inference.match.reif_join_ms",
        "inference.match.order_limit_ms",
        "inference.match.like_fetched_per_returned"),
    "db.pool": ("db.pool.lease_us", "db.pool.lease_after_write_us",
                "db.pool.writer_hop_us"),
    "server": (
        "server.app.http_floor_us", "server.app.match_overhead_us",
        "server.app.encode_us_per_row", "server.client.overhead_us"),
    "cache": ("cache.lookup_hit_us", "cache.normalized_key_us",
              "cache.hit_ratio"),
    "replica": ("replica.try_match_us", "replica.build_s",
                "replica.bytes_per_triple", "replica.like_filter_ms"),
}
PROBE_NAMES = tuple(name for names in GROUPS.values() for name in names)


def _mean_us(call, items) -> float:
    """Mean microseconds per ``call(item)``."""
    items = list(items)
    began = perf_counter()
    for item in items:
        call(item)
    return (perf_counter() - began) / len(items) * 1e6


def _median_s(call, repeats: int = 5) -> float:
    timings = []
    for _ in range(repeats):
        began = perf_counter()
        call()
        timings.append(perf_counter() - began)
    return statistics.median(timings)


class Probes:
    """The suite over one private copy of the built store."""

    def __init__(self, run: Run, source_db: str) -> None:
        self.run = run
        self.dataset: Dataset = run.dataset
        self.path = run.path("probe.db")
        shutil.copyfile(source_db, self.path)
        self.rng = random.Random(f"{self.dataset.seed}:probes")
        self.count = min(2000, len(self.dataset.subjects))
        self.skipped: list[str] = []

    def _n(self, count: int) -> int:
        """A repeat count, cut down on the ``--smoke`` dataset so the
        whole suite stays a second or two there."""
        return max(20, int(count * min(
            1.0, self.dataset.triple_count / 20_000)))

    def run_all(self) -> dict[str, float]:
        metrics = dict.fromkeys(PROBE_NAMES, 0.0)
        for group in GROUPS:
            method = getattr(self, "_" + group.replace(".", "_"))
            try:
                metrics.update(method())
            except (ImportError, AttributeError, TypeError) as exc:
                # The layer's entry point is gone or changed shape.
                self.skipped.append(f"{group}: {exc!r}")
        return metrics

    # -- control: no repro code at all ---------------------------------

    def _control(self) -> dict:
        connection = sqlite3.connect(self.path)
        try:
            top = connection.execute(
                'SELECT MAX(link_id) FROM "rdf_link$"').fetchone()[0]
            ids = [(self.rng.randint(1, top),) for _ in range(self._n(5000))]
            statement = 'SELECT * FROM "rdf_link$" WHERE link_id = ?'
            pk = _median_s(lambda: [connection.execute(
                statement, key).fetchone() for key in ids])
        finally:
            connection.close()

        def pyloop() -> int:
            total = 0
            for i in range(200_000):
                total += i * i % 7
            return total

        return {"control.sqlite_pk_us": pk / len(ids) * 1e6,
                "control.pyloop_ms": _median_s(pyloop) * 1e3}

    # -- the load path ---------------------------------------------------

    def _head_file(self) -> tuple[str, int]:
        """The first 20 000 lines of the N-Triples file (path, lines)."""
        path = self.run.path("head.nt")
        lines = min(20_000, self.dataset.triple_count)
        if not os.path.exists(path):
            with open(self.dataset.nt_path, encoding="utf-8") as source, \
                    open(path, "w", encoding="utf-8") as out:
                for _, line in zip(range(lines), source):
                    out.write(line)
        return path, lines

    def _rdf_ntriples(self) -> dict:
        from repro.rdf.ntriples import parse_ntriples

        path, lines = self._head_file()
        with open(path, encoding="utf-8") as stream:
            began = perf_counter()
            for _ in parse_ntriples(stream):
                pass
            elapsed = perf_counter() - began
        return {"rdf.ntriples.parse_us_per_triple": elapsed / lines * 1e6}

    def _core_bulkload(self) -> dict:
        from repro.core.bulkload import bulk_load_ntriples

        head, _ = self._head_file()
        store = RDFStore(self.run.path("bulk.db"), observe=True,
                         durability="durable")
        try:
            store.create_model(MODEL)
            began = perf_counter()
            bulk_load_ntriples(store, MODEL, head)
            wall = perf_counter() - began
            stages = bulkload_stages(store)
        finally:
            store.close()
        metrics = {f"core.bulkload.{stage}_s": seconds
                   for stage, seconds in stages.items()}
        metrics["core.bulkload.residual_share"] = \
            1.0 - sum(stages.values()) / wall
        return metrics

    # -- values, links, store, connection (writable copy) -------------------

    def _core_values(self) -> dict:
        from repro.rdf.terms import URI

        with RDFStore(self.path, durability="durable") as store:
            values = store.values
            terms = [URI(subject) for subject in
                     self.rng.sample(self.dataset.subjects, self.count)]
            values.invalidate_cache()
            cold = _mean_us(values.find_id, terms)
            hot = _mean_us(values.find_id, terms)
            ids = [values.find_id(term) for term in terms]
            values.invalidate_cache()
            began = perf_counter()
            values.get_terms(ids)
            get_terms = (perf_counter() - began) / len(ids) * 1e6
            fresh = [URI(f"urn:bench:probe:value:{i}") for i in range(1000)]
            with store.database.transaction():
                insert = _mean_us(values.lookup_or_insert, fresh)
        return {"core.values.find_id_hot_us": hot,
                "core.values.find_id_cold_us": cold,
                "core.values.lookup_or_insert_us": insert,
                "core.values.get_terms_us_per_term": get_terms}

    def _sample_links(self, store: RDFStore):
        return [store.find_link(MODEL, *true_probe(pair)) for pair in
                self.rng.sample(self.dataset.reified,
                                min(self.count, len(self.dataset.reified)))]

    def _core_links(self) -> dict:
        from repro.core.links import Context, LinkType

        with RDFStore(self.path, durability="durable") as store:
            links = store.links
            known = self._sample_links(store)
            find = _mean_us(lambda link: links.find(
                link.model_id, link.start_node_id, link.p_value_id,
                link.end_node_id), known)
            get = _mean_us(lambda link: links.get(link.link_id), known)
            # New (subject, predicate, object) combinations of existing,
            # registered nodes: the row insert alone, no value work.
            first = known[0]
            subjects = {link.start_node_id for link in known}
            with store.database.transaction():
                insert = _mean_us(lambda subject: links.insert(
                    first.model_id, subject, first.p_value_id,
                    first.start_node_id, first.start_node_id,
                    LinkType.STANDARD, Context.DIRECT, False), subjects)
        return {"core.links.find_us": find, "core.links.get_us": get,
                "core.links.insert_us": insert}

    def _core_store(self) -> dict:
        dataset = self.dataset
        with RDFStore(self.path, durability="durable") as store:
            known = self._sample_links(store)
            pairs = self.rng.sample(dataset.reified, len(known))
            find_link = _mean_us(lambda pair: store.find_link(
                MODEL, *true_probe(pair)), pairs)
            is_reified_id = _mean_us(lambda link: store.is_reified_id(
                MODEL, link.link_id), known)
            unreified = [store.find_link(MODEL, *true_probe(pair))
                         for pair in dataset.see_also[
                             len(dataset.reified):][:1000]]
            inproc = InProcess(store, dataset)
            provenance = statistics.median(
                inproc.whole("provenance", index)[0] for index in
                self.rng.sample(range(len(dataset.reified)),
                                min(500, len(dataset.reified)))) * 1e6
            with store.database.transaction():
                insert = _mean_us(lambda i: store.insert_triple(
                    MODEL, f"<urn:bench:probe:s:{i}>", "<urn:bench:p>",
                    f"<urn:bench:probe:o:{i}>"), range(1000))
                reify = _mean_us(lambda link: store.reify_triple(
                    MODEL, link.link_id), unreified) if unreified else 0.0
        return {"core.store.insert_triple_us": insert,
                "core.store.find_link_us": find_link,
                "core.store.is_reified_id_us": is_reified_id,
                "core.store.reify_triple_us": reify,
                "core.store.provenance_us": provenance}

    def _db_connection(self) -> dict:
        with RDFStore(self.path, durability="durable") as store:
            database = store.database
            database.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            wal = self.path + "-wal"
            commits = []
            for i in range(200):
                scope = database.transaction()
                scope.__enter__()
                store.insert_triple(MODEL, f"<urn:bench:probe:c:{i}>",
                                    "<urn:bench:p>", "<urn:bench:o>")
                began = perf_counter()
                scope.__exit__(None, None, None)  # the COMMIT
                commits.append(perf_counter() - began)
            wal_bytes = os.path.getsize(wal)
            began = perf_counter()
            database.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            checkpoint = perf_counter() - began
            began = perf_counter()
            rows = database.query_all(
                'SELECT * FROM "rdf_link$" LIMIT 20000')
            per_row = (perf_counter() - began) / len(rows) * 1e6
        return {"db.connection.commit_us":
                statistics.median(commits) * 1e6,
                "db.connection.query_all_us_per_row": per_row,
                "db.connection.checkpoint_s": checkpoint,
                "db.connection.wal_bytes_per_insert": wal_bytes / 200}

    # -- the read path ------------------------------------------------------

    def _queries(self) -> tuple[list[str], list[str]]:
        dataset = self.dataset
        subjects = self.rng.sample(dataset.subjects, min(
            1000, len(dataset.subjects)))
        one = [dataset.lookup_query(subject) for subject in subjects]
        three = [dataset.analytic_query("star3", (
            self.rng.choice(dataset.taxa), keyword))["query"]
            for keyword in dataset.keyword_ids]
        return one, three

    def _inference_patterns(self) -> dict:
        from repro.inference.patterns import parse_pattern_list
        from repro.rdf.namespaces import AliasSet

        aliases = AliasSet()
        one, three = self._queries()
        return {
            "inference.patterns.parse1_us": _mean_us(
                lambda query: parse_pattern_list(query, aliases), one),
            "inference.patterns.parse3_us": _mean_us(
                lambda query: parse_pattern_list(query, aliases), three)}

    def _inference_plan(self) -> dict:
        from repro.inference.patterns import parse_pattern_list
        from repro.inference.plan import build_plan, plan_key
        from repro.rdf.namespaces import AliasSet

        aliases = AliasSet()
        one, three = self._queries()
        with RDFStore(self.path) as store:
            key = _mean_us(lambda query: plan_key(
                query, MODELS, (), aliases, None, None, None), one)
            parsed = [[parse_pattern_list(query, aliases)
                       for query in queries] for queries in (one, three)]
            build_plan(store, parsed[0][0], MODELS, ())  # load statistics
            build = [_mean_us(lambda patterns: build_plan(
                store, patterns, MODELS, ()), batch) for batch in parsed]
        return {"inference.plan.plan_key_us": key,
                "inference.plan.build_plan1_us": build[0],
                "inference.plan.build_plan3_us": build[1]}

    def _inference_match(self) -> dict:
        dataset = self.dataset
        metrics = {}
        with RDFStore(self.path) as store:
            inproc = InProcess(store, dataset)
            ops = dataset.analytic_schedule()
            for shape in SHAPES:
                constants = [arg for kind, arg in ops if kind == shape][:5]
                metrics[f"inference.match.{shape}_ms"] = statistics.median(
                    inproc.whole(shape, arg)[0] for arg in constants) * 1e3
            # Rows the SQL fetched per row the filter kept (for a
            # constant that matches something): above 1 means the LIKE
            # ran in Python over a wider scan.
            smart = [obj for _, obj in dataset.see_also if "smart:X0" in obj]
            arguments = dataset.analytic_query(
                "like_filter",
                int(smart[0].split("smart:X0")[1][:2]) if smart else 0)
            explanation = sdo_rdf_match(store, arguments["query"], MODELS,
                                        filter=arguments["filter"],
                                        explain=True)
            plan = explanation.plan
            fetched = len(store.database.query_all(plan.sql, plan.params))
            returned = len(sdo_rdf_match(store, arguments["query"], MODELS,
                                         filter=arguments["filter"]))
        metrics["inference.match.like_fetched_per_returned"] = \
            fetched / max(1, returned)
        return metrics

    # -- pool, server, client -----------------------------------------------

    def _db_pool(self) -> dict:
        from repro.db.pool import ConnectionPool, WriterQueue

        pool = ConnectionPool(
            self.path, size=2, durability="durable", wrap=RDFStore,
            invalidate=lambda store: store.values.invalidate_cache())
        writer = WriterQueue(lambda: RDFStore(
            self.path, durability="durable")).start()
        try:
            def lease(_=None) -> None:
                pool.release(pool.acquire())

            lease()
            uncontended = _mean_us(lease, range(self._n(2000)))
            after_write = []
            for i in range(100):
                writer.call(lambda store, i=i: store.insert_triple(
                    MODEL, f"<urn:bench:probe:w:{i}>", "<urn:bench:p>",
                    "<urn:bench:o>"))
                began = perf_counter()
                lease()
                after_write.append(perf_counter() - began)
            hop = _mean_us(lambda _: writer.submit(
                lambda store: None).result(), range(self._n(1000)))
        finally:
            writer.stop()
            pool.close()
        return {"db.pool.lease_us": uncontended,
                "db.pool.lease_after_write_us":
                statistics.median(after_write) * 1e6,
                "db.pool.writer_hop_us": hop}

    def _server(self) -> dict:
        from repro.workloads.uniprot import PROBE_FANOUT, PROBE_SUBJECT

        dataset = self.dataset
        stream = dataset.zipf_subjects(self.rng, self._n(500))
        small = {"query": dataset.lookup_query(PROBE_SUBJECT)}
        big = dataset.analytic_query("pred_scan", dataset.taxa[0])
        with RDFStore(self.path) as store:
            def local(arguments: dict) -> int:
                return len(sdo_rdf_match(store, arguments["query"], MODELS))

            local_stream = statistics.median(_timings(
                local, [{"query": dataset.lookup_query(s)} for s in stream]))
            local_small = statistics.median(_timings(local, [small] * 20))
            local_big = statistics.median(_timings(local, [big] * 20))
            big_rows = local(big)
        with serve.ChildServer(self.path,
                               self.run.path("probe-server.log")) as server:
            with server.client() as client:
                def remote(arguments: dict) -> int:
                    return client.match(models=MODELS, **arguments)["count"]

                floor = statistics.median(_timings(
                    lambda _: client.health("live"), range(self._n(500))))
                serial = statistics.median(_timings(
                    remote, [{"query": dataset.lookup_query(s)}
                             for s in stream]))
                http_small = statistics.median(_timings(remote, [small] * 20))
                http_big = statistics.median(_timings(remote, [big] * 20))
                # The same bytes ReproClient.match sends, on a bare
                # http.client connection; the two take turns going
                # first, so neither always finds the server warm.
                bare = http.client.HTTPConnection("127.0.0.1", server.port)
                try:
                    def raw(arguments: dict) -> None:
                        bare.request(
                            "POST", "/match", body=json.dumps(
                                {**arguments, "models": MODELS}
                            ).encode("utf-8"),
                            headers={"Content-Type": "application/json"})
                        bare.getresponse().read()

                    http_stream, bare_stream = [], []
                    for index, subject in enumerate(stream):
                        arguments = {"query": dataset.lookup_query(subject)}
                        calls = [(remote, http_stream), (raw, bare_stream)]
                        for call, timings in calls[::1 - 2 * (index % 2)]:
                            timings += _timings(call, [arguments])
                finally:
                    bare.close()
        encode = ((http_big - local_big) - (http_small - local_small)) \
            / (big_rows - PROBE_FANOUT)
        return {
            "server.app.http_floor_us": floor * 1e6,
            "server.app.match_overhead_us": (serial - local_stream) * 1e6,
            "server.app.encode_us_per_row": encode * 1e6,
            "server.client.overhead_us":
            (statistics.median(http_stream)
             - statistics.median(bare_stream)) * 1e6}

    # -- the opt-in tiers (off by default) ----------------------------------

    def _replay(self, store: RDFStore, count: int) -> list[float]:
        inproc = InProcess(store, self.dataset)
        lookups = [op for op in self.dataset.point_schedule()
                   if op[0] == "lookup"][:count]
        return [inproc.whole(kind, arg)[0] for kind, arg in lookups]

    def _cache(self) -> dict:
        from repro.cache.normalize import normalized_key
        from repro.rdf.namespaces import AliasSet

        one, _ = self._queries()
        aliases = AliasSet()
        with RDFStore(self.path) as store:
            cache = store.enable_result_cache()
            self._replay(store, self._n(2000))
            stats = cache.stats()
            key_us = _mean_us(lambda query: normalized_key(
                query, MODELS, (), aliases, None, None, None), one)
            keys = list(cache.keys())[:1000]
            version = store.database.data_version
            hit_us = _mean_us(lambda key: cache.lookup(key, version), keys)
        return {"cache.lookup_hit_us": hit_us,
                "cache.normalized_key_us": key_us,
                "cache.hit_ratio": stats["hits"] / max(
                    1, stats["hits"] + stats["misses"])}

    def _replica(self) -> dict:
        dataset = self.dataset
        with RDFStore(self.path, replica=True) as store:
            began = perf_counter()
            store.replica.warm(store, MODEL)
            build = perf_counter() - began
            timings = self._replay(store, self._n(2000))
            like = statistics.median(
                InProcess(store, dataset).whole("like_filter", n)[0]
                for n in range(5))
            nbytes = store.replica.total_bytes
        return {"replica.try_match_us": statistics.median(timings) * 1e6,
                "replica.build_s": build,
                "replica.bytes_per_triple": nbytes / dataset.triple_count,
                "replica.like_filter_ms": like * 1e3}


def _timings(call, items) -> list[float]:
    timings = []
    for item in items:
        began = perf_counter()
        call(item)
        timings.append(perf_counter() - began)
    return timings


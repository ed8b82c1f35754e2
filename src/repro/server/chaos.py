"""Seeded chaos storms against the serving layer.

A storm hammers a running :class:`~repro.server.app.ReproServer` from
several client threads while a :class:`~repro.db.faults.FaultInjector`
fires a **randomized-but-seeded** fault schedule into the request
path: slow SQL mid-query, connections dropped mid-response, writer
stalls, pool exhaustion.  The same ``(fault class, seed)`` pair
replays the identical schedule, so a storm that finds a bug *is* the
reproducer.

Under every schedule the storm asserts the serving layer's five
resilience invariants:

1. **No torn reads** — writes land in atomic batches; every subject a
   ``/match`` observes carries either its whole batch or nothing.
2. **Monotonic versions** — the ``data_version``/``write_version`` a
   client observes never goes backward (replayed idempotent outcomes
   excepted: they report the version their original commit had).
3. **No duplicate writes** — every logical write is retried under one
   idempotency key until it succeeds, and the final triple count must
   equal exactly one application of each; deliberate double-sends must
   replay, not re-apply.
4. **A request id on every response** — success or error, every HTTP
   response the server manages to send carries ``X-Request-Id``
   (responses cut off mid-flight by a drop fault never arrive and are
   exempt).
5. **No stale cache serves** — when the server runs a result cache, a
   ``/match`` answered from it (``cached: true``) never carries a
   ``data_version`` older than any ``write_version`` a completed write
   had already reported before the read was issued.  The cache may
   *miss* more than strictly necessary; it may never serve a snapshot
   from before an acknowledged write.

The driver is shared by the storm tests (``tests/server/test_chaos.py``)
and the ``repro chaos`` CLI command.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.db.faults import (
    DROP,
    LOCK,
    POINT_POOL_ACQUIRE,
    POINT_RESPONSE,
    POINT_WRITER_JOB,
    SLOW,
    FaultInjector,
)
from repro.errors import ReproError, ServerError
from repro.server.client import ReproClient

#: Triples per logical write; the torn-read invariant's atom.
BATCH = 3

#: Everything a chaos model's triples hang off.
_PREFIX = "urn:chaos:"

#: Fault classes a storm can run under -> human description.
FAULT_CLASSES: dict[str, str] = {
    "clean": "no faults (the control run)",
    "slow-sql": "probabilistic sleeps before reader SELECTs",
    "drop-response": "connections torn down mid-response body",
    "writer-stall": "probabilistic stalls before writer jobs",
    "pool-exhaust": "probabilistic lease denials at pool.acquire",
}

#: Effectively-unbounded fire count for storm faults.
_UNBOUNDED = 10 ** 9

#: "The connection died": both the socket layer's errors and
#: http.client's (IncompleteRead from a drop fault is an
#: HTTPException, not an OSError).
_NET_ERRORS = (OSError, http.client.HTTPException)


def arm_faults(injector: FaultInjector, fault_class: str, *,
               chance: float = 0.1, delay: float = 0.05) -> None:
    """Arm ``injector`` with one storm fault class' schedule.

    ``chance`` is per matching execution, drawn from the injector's
    seeded RNG; ``delay`` scales the slow/stall sleeps.
    """
    if fault_class == "clean":
        return
    if fault_class == "slow-sql":
        injector.inject(SLOW, match="SELECT", site="statement",
                        times=_UNBOUNDED, chance=chance, delay=delay)
    elif fault_class == "drop-response":
        injector.inject(DROP, site=POINT_RESPONSE,
                        times=_UNBOUNDED, chance=chance)
    elif fault_class == "writer-stall":
        injector.inject(SLOW, site=POINT_WRITER_JOB,
                        times=_UNBOUNDED, chance=chance,
                        delay=delay * 2)
    elif fault_class == "pool-exhaust":
        injector.inject(LOCK, site=POINT_POOL_ACQUIRE,
                        times=_UNBOUNDED, chance=chance)
    else:
        raise ValueError(
            f"unknown fault class {fault_class!r}; expected one of "
            f"{', '.join(FAULT_CLASSES)}")


@dataclass
class ChaosReport:
    """What one storm did and whether the invariants held."""

    fault_class: str
    seed: int
    requests: int = 0
    by_status: dict[int, int] = field(default_factory=dict)
    retries: int = 0
    replays: int = 0
    reconciled: int = 0
    cache_hits: int = 0
    writes_applied: int = 0
    final_triples: int = -1
    expected_triples: int = -1
    faults_fired: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "fault_class": self.fault_class,
            "seed": self.seed,
            "ok": self.ok,
            "requests": self.requests,
            "by_status": {str(k): v
                          for k, v in sorted(self.by_status.items())},
            "retries": self.retries,
            "idempotent_replays": self.replays,
            "reconciled_writes": self.reconciled,
            "cache_hits": self.cache_hits,
            "writes_applied": self.writes_applied,
            "final_triples": self.final_triples,
            "expected_triples": self.expected_triples,
            "faults_fired": dict(self.faults_fired),
            "violations": list(self.violations),
            "duration_seconds": round(self.duration, 3),
        }

    def render(self) -> str:
        head = "OK  " if self.ok else "FAIL"
        lines = [
            f"{head} chaos[{self.fault_class}] seed={self.seed} "
            f"requests={self.requests} retries={self.retries} "
            f"replays={self.replays} "
            f"cache_hits={self.cache_hits} "
            f"faults={self.faults_fired.get('fired', 0)} "
            f"triples={self.final_triples}/{self.expected_triples} "
            f"({self.duration:.2f}s)",
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


class _StormState:
    """Shared bookkeeping, one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.by_status: dict[int, int] = {}
        self.retries = 0
        self.replays = 0
        self.requests = 0
        self.writes_applied = 0
        self.reconciled = 0
        self.cache_hits = 0
        #: Highest write_version any completed write has reported.
        #: The cache-coherence floor: a later cache-served read must
        #: carry a data_version at least this high.
        self.max_write_version = -1
        self.violations: list[str] = []
        #: (worker, op) keys whose write never got a success answer.
        self.unresolved: list[tuple[str, str, list[list[str]]]] = []

    def count(self, status: int) -> None:
        with self.lock:
            self.requests += 1
            self.by_status[status] = self.by_status.get(status, 0) + 1

    def violate(self, message: str) -> None:
        with self.lock:
            if len(self.violations) < 50:
                self.violations.append(message)

    def observe_write_version(self, outcome: dict) -> None:
        """Raise the coherence floor from a completed write's answer.

        Replayed outcomes report their *original* commit's version —
        taking the max keeps them from lowering the floor.
        """
        version = outcome.get("write_version")
        if isinstance(version, (int, float)):
            with self.lock:
                if version > self.max_write_version:
                    self.max_write_version = int(version)


def _batch_triples(worker: int, op: int) -> list[list[str]]:
    subject = f"<{_PREFIX}w{worker}:op{op}>"
    return [[subject, f"<{_PREFIX}p{i}>", f'"v{worker}.{op}.{i}"']
            for i in range(BATCH)]


def _check_request_id(client: ReproClient,
                      state: _StormState, where: str) -> None:
    if client.last_request_id is None:
        state.violate(f"response without X-Request-Id at {where}")


def run_storm(host: str, port: int, *,
              fault_class: str = "clean",
              seed: int = 0,
              requests: int = 200,
              workers: int = 4,
              model: str = "chaos",
              faults: FaultInjector | None = None,
              read_deadline: float | None = None,
              timeout: float = 30.0) -> ChaosReport:
    """Run one seeded storm against a serving layer at ``host:port``.

    The server must already be armed with the fault schedule (use
    :func:`arm_faults` on the injector passed as
    ``ServerConfig(faults=...)``); pass the same injector here so the
    report can include its fired counters.  ``requests`` is the total
    operation count across ``workers`` threads; roughly one in four
    operations is a write.
    """
    report = ChaosReport(fault_class=fault_class, seed=seed)
    state = _StormState()
    started = time.monotonic()

    # Bootstrap: the model must exist before readers storm it.  The
    # bootstrap write is a batch like any other, so the torn-read
    # arithmetic stays uniform.
    with ReproClient(host, port, timeout=timeout) as boot:
        state.observe_write_version(
            boot.insert(model, _batch_triples(-1, 0), create=True))
    state.writes_applied += 1

    per_worker = max(1, requests // max(1, workers))

    def write_once(client: ReproClient, rng: random.Random,
                   worker: int, op: int) -> None:
        triples = _batch_triples(worker, op)
        key = f"chaos-{seed}-w{worker}-op{op}"
        outcome = _retry_write(client, state, model, triples, key)
        if outcome is None:
            with state.lock:
                state.unresolved.append((key, model, triples))
            return
        with state.lock:
            state.writes_applied += 1
        if rng.random() < 0.25:
            # Deliberate duplicate: the same key again MUST replay the
            # recorded outcome, not apply a second batch.
            try:
                client.last_request_id = None
                replay = client.insert(model, triples,
                                       idempotency_key=key)
                state.count(200)
                _check_request_id(client, state, "duplicate insert")
            except (ServerError, ReproError, *_NET_ERRORS):
                return  # shed/unlucky; the invariant is checked below
            if not replay.get("idempotent_replay"):
                state.violate(
                    f"duplicate write applied twice for key {key}: "
                    f"{replay!r}")
            with state.lock:
                state.replays += 1

    def read_once(client: ReproClient, worker: int,
                  last_version: list[int]) -> None:
        # The coherence floor is captured BEFORE the read goes out:
        # every write counted into it was acknowledged first, so any
        # snapshot the server answers from — cached or not — must be
        # at least this new.  Writes landing DURING the read may be
        # newer than the floor; that is fine, the floor only ratchets.
        with state.lock:
            floor = state.max_write_version
        try:
            client.last_request_id = None
            result = client.match(f"(?s <{_PREFIX}p0> ?o)", model,
                                  deadline=read_deadline)
            state.count(200)
            _check_request_id(client, state, "match")
        except ServerError as exc:
            state.count(exc.status or 0)
            _check_request_id(client, state,
                              f"match error {exc.status}")
            if exc.status in (429, 504, 503):
                return  # by-design shedding under faults
            state.violate(
                f"unexpected /match failure HTTP {exc.status}: {exc}")
            return
        except _NET_ERRORS:
            # Both the response and its resend were dropped.
            with state.lock:
                state.retries += 1
            return
        version = result.get("data_version", -1)
        if version < last_version[0]:
            state.violate(
                f"data_version went backward on worker {worker}: "
                f"{last_version[0]} -> {version}")
        last_version[0] = max(last_version[0], version)
        if result.get("cached"):
            with state.lock:
                state.cache_hits += 1
            if version < floor:
                state.violate(
                    f"stale cache serve on worker {worker}: cached "
                    f"/match carried data_version {version} but a "
                    f"write at version {floor} was already "
                    "acknowledged before the read was issued")

    def _retry_write(client: ReproClient, state: _StormState,
                     model_: str, triples: list[list[str]],
                     key: str, attempts: int = 8) -> dict | None:
        for attempt in range(attempts):
            try:
                client.last_request_id = None
                outcome = client.insert(model_, triples,
                                        idempotency_key=key)
                state.count(200)
                _check_request_id(client, state, "insert")
                state.observe_write_version(outcome)
                if outcome.get("idempotent_replay"):
                    with state.lock:
                        state.replays += 1
                return outcome
            except ServerError as exc:
                state.count(exc.status or 0)
                _check_request_id(client, state,
                                  f"insert error {exc.status}")
                if exc.status not in (429, 503, 504):
                    state.violate(
                        f"unexpected /insert failure HTTP "
                        f"{exc.status}: {exc}")
                    return None
            except _NET_ERRORS:
                pass  # dropped twice in a row; same key retries below
            with state.lock:
                state.retries += 1
            time.sleep(min(0.05 * (attempt + 1), 0.4))
        return None

    def worker_loop(worker: int) -> None:
        rng = random.Random((seed << 8) ^ worker)
        last_version = [-1]
        with ReproClient(host, port, timeout=timeout) as client:
            for op in range(per_worker):
                if rng.random() < 0.25:
                    write_once(client, rng, worker, op)
                else:
                    read_once(client, worker, last_version)

    threads = [threading.Thread(target=worker_loop, args=(index,),
                                name=f"chaos-{index}")
               for index in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # The storm is over: capture the fired counters, then quiesce the
    # schedule — reconciliation and the final sweep must observe the
    # database, not keep fighting the fault injector.
    if faults is not None:
        report.faults_fired = faults.stats()
        if fault_class != "clean" \
                and report.faults_fired.get("fired", 0) == 0:
            state.violate(
                f"fault schedule {fault_class!r} never fired — the "
                "storm exercised nothing")
        faults.reset()

    # Reconciliation: a write whose every attempt failed may still
    # have committed (e.g. a 504 with the job already running).  Its
    # idempotency key settles the question — one more send applies it
    # exactly once or replays the earlier commit; either way it now
    # counts exactly once.
    with ReproClient(host, port, timeout=timeout) as tail:
        for key, model_, triples in state.unresolved:
            outcome = _retry_write(tail, state, model_, triples, key,
                                   attempts=12)
            if outcome is None:
                state.violate(
                    f"write {key} never reconciled (server kept "
                    "failing it)")
            else:
                with state.lock:
                    state.writes_applied += 1
                    state.reconciled += 1

        _drain_writer(tail)
        _verify_final(tail, state, model, report)

    report.requests = state.requests
    report.by_status = dict(state.by_status)
    report.retries = state.retries
    report.replays = state.replays
    report.reconciled = state.reconciled
    report.cache_hits = state.cache_hits
    report.writes_applied = state.writes_applied
    report.violations = list(state.violations)
    report.duration = time.monotonic() - started
    return report


def _drain_writer(client: ReproClient, timeout: float = 10.0) -> None:
    """Wait until the writer queue is empty (bounded)."""
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        try:
            stats = client.stats()
        except (ServerError, OSError):
            time.sleep(0.1)
            continue
        if stats.get("writer", {}).get("depth", 0) == 0:
            return
        time.sleep(0.05)


def _verify_final(client: ReproClient, state: _StormState,
                  model: str, report: ChaosReport) -> None:
    """End-of-storm sweep: batch atomicity and exact write counts."""
    try:
        result = client.match("(?s ?p ?o)", model)
    except (ServerError, OSError) as exc:
        state.violate(f"final verification sweep failed: {exc}")
        return
    rows = result.get("rows", [])
    report.final_triples = len(rows)
    report.expected_triples = state.writes_applied * BATCH
    if report.final_triples != report.expected_triples:
        state.violate(
            f"duplicate or lost writes: {report.final_triples} "
            f"triples in the model, expected "
            f"{report.expected_triples} "
            f"({state.writes_applied} batches x {BATCH})")
    per_subject: dict[str, int] = {}
    for row in rows:
        subject = str(row.get("s"))
        per_subject[subject] = per_subject.get(subject, 0) + 1
    torn = {s: n for s, n in per_subject.items() if n != BATCH}
    if torn:
        state.violate(
            f"torn batches (subject -> triple count): "
            f"{json.dumps(dict(sorted(torn.items())[:5]))}")

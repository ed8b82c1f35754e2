"""Durability profiles and the retry/backoff policy of the engine.

The paper's system inherits crash safety from Oracle; our SQLite
substitute has to choose its own durability/performance point.  This
module names the three supported points as :class:`DurabilityProfile`
values and implements the :class:`RetryPolicy` that turns transient
engine errors (``database is locked``) into bounded exponential-backoff
retries instead of raw failures.

Profiles
--------

``ephemeral``
    Today's test/benchmark defaults: in-memory journal, ``synchronous
    = OFF``.  Fastest; a crash mid-write can corrupt the file.  The
    default for in-memory databases and the historical behaviour.
``durable``
    WAL journaling with ``synchronous = NORMAL`` and a busy timeout.
    A killed process loses at most the open transaction; the WAL
    replays or rolls back on the next open, so the schema invariants
    survive (the crash-recovery tests prove it with real ``os._exit``
    kills mid-bulkload).
``paranoid``
    WAL with ``synchronous = FULL``, a longer busy timeout, and a
    ``PRAGMA foreign_keys`` read before every outermost BEGIN: a
    transaction is refused when enforcement is off.  SQLite ignores
    that pragma inside a transaction, so the read holds until COMMIT
    and every statement is checked as it runs — O(1) per transaction,
    not a whole-file ``foreign_key_check`` (``repro doctor`` runs that).

Selection: constructor argument > ``REPRO_DURABILITY`` environment
variable > ``ephemeral``.  The CLI exposes ``--durability``.

Retry policy
------------

SQLite raises ``sqlite3.OperationalError("database is locked")`` when a
concurrent writer holds the file.  :meth:`RetryPolicy.run` classifies
operational errors into *transient* (locked/busy — worth retrying) and
*fatal* (disk I/O, corruption — fail immediately), retries transient
ones with capped exponential backoff plus jitter, and reports every
retry through the observer (``sql.retries`` counter,
``sql.backoff_seconds`` histogram), so lock contention is visible in
``repro stats --json``.
"""

from __future__ import annotations

import os
import random
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import StorageError
from repro.obs.observer import NULL_OBSERVER, Observer

#: Environment variable selecting the durability profile by name.
DURABILITY_ENV_VAR = "REPRO_DURABILITY"

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class DurabilityProfile:
    """One named durability/performance point for the engine."""

    name: str
    journal_mode: str
    synchronous: str
    busy_timeout_ms: int
    #: Refuse to BEGIN while ``PRAGMA foreign_keys`` is off.
    verify_foreign_keys: bool
    #: Run ``PRAGMA wal_checkpoint(TRUNCATE)`` on close so the main
    #: database file is complete on its own.
    checkpoint_on_close: bool

    def pragmas(self, read_only: bool = False,
                current_journal_mode: str = "") -> list[str]:
        """The PRAGMA statements establishing this profile.

        A read-only (``mode=ro``) connection cannot switch journal
        modes — it inherits whatever the writer established — so that
        pragma is omitted; the connection-local ones still apply.  A
        file whose ``current_journal_mode`` is already WAL keeps WAL:
        leaving WAL needs the file to itself, so a second opener would
        fail while any other connection holds it.
        """
        statements = ["PRAGMA foreign_keys = ON"]
        if not read_only and current_journal_mode.lower() != "wal":
            statements.append(
                f"PRAGMA journal_mode = {self.journal_mode}")
        statements.extend([
            f"PRAGMA synchronous = {self.synchronous}",
            f"PRAGMA busy_timeout = {self.busy_timeout_ms}",
        ])
        return statements


EPHEMERAL = DurabilityProfile(
    name="ephemeral", journal_mode="MEMORY", synchronous="OFF",
    busy_timeout_ms=0, verify_foreign_keys=False,
    checkpoint_on_close=False)

DURABLE = DurabilityProfile(
    name="durable", journal_mode="WAL", synchronous="NORMAL",
    busy_timeout_ms=5_000, verify_foreign_keys=False,
    checkpoint_on_close=True)

PARANOID = DurabilityProfile(
    name="paranoid", journal_mode="WAL", synchronous="FULL",
    busy_timeout_ms=10_000, verify_foreign_keys=True,
    checkpoint_on_close=True)

#: All named profiles, keyed by name.
PROFILES: dict[str, DurabilityProfile] = {
    profile.name: profile
    for profile in (EPHEMERAL, DURABLE, PARANOID)
}


def resolve_profile(durability: str | DurabilityProfile | None = None
                    ) -> DurabilityProfile:
    """Resolve a profile: explicit value > ``REPRO_DURABILITY`` > ephemeral.

    Accepts a profile object, a profile name, or ``None``.
    """
    if isinstance(durability, DurabilityProfile):
        return durability
    name = durability
    if name is None:
        name = os.environ.get(DURABILITY_ENV_VAR, "").strip() or None
    if name is None:
        return EPHEMERAL
    try:
        return PROFILES[name.lower()]
    except KeyError:
        raise StorageError(
            f"unknown durability profile {name!r}; expected one of "
            f"{', '.join(sorted(PROFILES))}") from None


# ----------------------------------------------------------------------
# transient-error classification
# ----------------------------------------------------------------------

#: Substrings of ``sqlite3.OperationalError`` messages that indicate a
#: transient condition worth retrying.
TRANSIENT_MARKERS: tuple[str, ...] = (
    "database is locked",
    "database table is locked",
    "database is busy",
)


def is_transient(exc: BaseException) -> bool:
    """True for operational errors a retry can plausibly fix.

    Only lock/busy conditions qualify; disk I/O errors, corruption,
    and SQL mistakes are fatal and must surface immediately.
    """
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return any(marker in message for marker in TRANSIENT_MARKERS)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient errors.

    The delay before attempt *n*'s retry is
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a
    jitter factor in ``[1 - jitter, 1]``.  ``sleep`` and ``rand`` are
    injectable so tests run without wall-clock waits and with
    deterministic jitter.
    """

    max_attempts: int = 5
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    sleep: Callable[[float], None] = field(default=time.sleep,
                                           repr=False)
    rand: Callable[[], float] = field(default=random.random, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError("RetryPolicy needs max_attempts >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise StorageError("RetryPolicy jitter must be in [0, 1]")

    def delay_for(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 1))
        return delay * ((1.0 - self.jitter) + self.jitter * self.rand())

    def run(self, fn: Callable[[], T],
            observer: Observer = NULL_OBSERVER) -> T:
        """Call ``fn``, retrying transient operational errors.

        Fatal errors (and transient ones after ``max_attempts``)
        propagate unchanged; the caller wraps them in
        :class:`~repro.errors.StorageError` with statement context.
        """
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            if not is_transient(exc) or self.max_attempts <= 1:
                raise
            return self._retry_loop(fn, observer)

    def _retry_loop(self, fn: Callable[[], T],
                    observer: Observer) -> T:
        """The slow path: attempt 1 already failed transiently."""
        retries = observer.counter(
            "sql.retries", "transient SQL errors retried with backoff")
        backoff = observer.metrics.histogram(
            "sql.backoff_seconds", "sleep before each SQL retry")
        attempt = 1
        while True:
            delay = self.delay_for(attempt)
            retries.inc()
            backoff.observe(delay)
            if delay > 0:
                self.sleep(delay)
            attempt += 1
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                if not is_transient(exc):
                    raise
                if attempt >= self.max_attempts:
                    observer.counter(
                        "sql.retry_exhausted",
                        "statements that kept failing after all "
                        "retry attempts").inc()
                    raise


#: The policy used when retrying is switched off (single attempt).
NO_RETRY = RetryPolicy(max_attempts=1)

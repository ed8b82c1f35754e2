"""The byte-capped, version-keyed LRU result cache.

Entries pair a result value with the data version it was computed
under.  :meth:`ResultCache.lookup` returns the value only when the
caller's current version matches; a mismatch deletes the entry and
counts an invalidation — the :class:`~repro.inference.plan.PlanCache`
idiom, which keeps exactly one entry per query shape and makes
invalidation exact without any write-path bookkeeping.

Versions are opaque, and each of the two tiers keys on one that names
a snapshot: the in-process tier on its own connection's
``data_version`` int, the server tier on the durable
``rdf_serve_state$`` ``write_version`` int.  The cache never compares
versions for order — only equality.

Memory is bounded in bytes, not entries, because one unselective query
can return more rows than a thousand point lookups.  Stored values are
sized with a recursive flat estimate (strings, containers, dicts);
eviction is LRU under an RLock so pooled server threads share one
instance safely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

from repro.errors import QueryError

#: Default byte cap: enough for ~64k cached point-lookup result sets,
#: small enough to be invisible next to SQLite's own page cache.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Flat per-object overhead charged by the size estimator for values
#: it does not descend into (ints, floats, None, bools).
_SCALAR_BYTES = 32


def estimate_bytes(value: Any) -> int:
    """A flat, allocator-free estimate of a result value's footprint.

    Counts string content and container slots; ignores interning and
    sharing, so it over-counts repeated terms — the safe direction for
    a cap.  Deliberately not ``sys.getsizeof`` recursion: this runs on
    the store path of every cache miss and must stay cheap.
    """
    stack = [value]
    total = 0
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            total += _SCALAR_BYTES + len(item)
        elif isinstance(item, bytes):
            total += _SCALAR_BYTES + len(item)
        elif isinstance(item, dict):
            total += _SCALAR_BYTES + 8 * len(item)
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            total += _SCALAR_BYTES + 8 * len(item)
            stack.extend(item)
        else:
            total += _SCALAR_BYTES
    return total


class _Entry:
    __slots__ = ("version", "value", "nbytes")

    def __init__(self, version: Hashable, value: Any,
                 nbytes: int) -> None:
        self.version = version
        self.value = value
        self.nbytes = nbytes


class ResultCache:
    """A thread-safe byte-capped LRU of versioned query results.

    One instance fronts one store (attached via
    ``store.attach_result_cache``) or one server (shared across the
    pooled readers, keyed on the durable ``write_version``).  Values are
    whatever the tier serves — MatchRow lists in process, pre-encoded
    JSON response bodies on the server — the cache never inspects
    them beyond sizing.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is None:
            max_bytes = DEFAULT_MAX_BYTES
        if max_bytes <= 0:
            raise QueryError(
                f"result-cache byte cap must be positive, got "
                f"{max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejects = 0  #: values larger than the whole cap

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def lookup(self, key: Hashable, version: Hashable) -> Any | None:
        """The cached value for ``key`` at exactly ``version``.

        A version mismatch deletes the entry (counted as an
        invalidation) and reports a miss: the caller recomputes and
        re-stores under the new version, so each shape occupies one
        slot no matter how often the data changes.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.version != version:
                self._drop_locked(key, entry)
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def would_serve(self, key: Hashable, version: Hashable) -> bool:
        """EXPLAIN peek: is there a fresh entry?  No counters, no LRU
        touch, no invalidation — purely advisory."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.version == version

    def store(self, key: Hashable, version: Hashable, value: Any,
              nbytes: int | None = None) -> bool:
        """Install ``value`` for ``key`` at ``version``; False when the
        value alone exceeds the byte cap (counted as a reject)."""
        if nbytes is None:
            nbytes = estimate_bytes(value)
        with self._lock:
            if nbytes > self.max_bytes:
                self.rejects += 1
                return False
            old = self._entries.get(key)
            if old is not None:
                self._drop_locked(key, old)
            self._entries[key] = _Entry(version, value, nbytes)
            self._bytes += nbytes
            self.stores += 1
            while self._bytes > self.max_bytes and self._entries:
                evicted_key, evicted = next(iter(self._entries.items()))
                self._drop_locked(evicted_key, evicted)
                self.evictions += 1
            return True

    def _drop_locked(self, key: Hashable, entry: _Entry) -> None:
        del self._entries[key]
        self._bytes -= entry.nbytes

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._entries))

    def stats(self) -> dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "rejects": self.rejects,
                "hit_rate": round(self.hits / total, 4) if total else None,
            }


def read_through(cache: "ResultCache | None", version: Hashable,
                 key_args: tuple, compute: Callable[[], Any],
                 peek: bool = False) -> tuple[Any, bool, tuple | None]:
    """One version-gated pass of a match query through ``cache``.

    The one place the in-process tier touches its result cache:
    normalized key -> lookup -> ``compute()`` -> store.  ``key_args``
    are :func:`normalized_key`'s arguments, ``version`` is the store's
    ``data_version``, ``compute`` produces the rows on a miss.  Returns
    ``(value, from_cache, key)``; with no cache attached that is just
    ``(compute(), False, None)``.

    The caller reads ``version`` BEFORE computing: a write racing the
    miss path can only make the stored rows *newer* than their key (the
    next lookup invalidates and recomputes) — never older, which would
    be a stale serve.

    ``peek`` is the EXPLAIN form: ``compute()`` always runs, nothing is
    stored, and the flag reports whether a fresh entry *would* have
    served — advisory, no counters or LRU touch.
    """
    if cache is None:
        return compute(), False, None
    # Lazy: the normalizer reuses repro.inference's parsers, whose
    # package imports the match path that imports this module.
    from repro.cache.normalize import normalized_key
    key = normalized_key(*key_args)
    if peek:
        return compute(), cache.would_serve(key, version), key
    cached = cache.lookup(key, version)
    if cached is not None:
        return list(cached), True, key
    rows = compute()
    # Sized on the lexical projection (what a consumer reads out of
    # the rows); the flat estimate must stay cheap on every miss.
    cache.store(key, version, rows,
                nbytes=estimate_bytes([row.as_dict() for row in rows]))
    return rows, False, key

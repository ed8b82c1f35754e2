"""Versioned query-result caching for SDO_RDF_MATCH.

The serving gap this closes: the paper's workloads are read-heavy with
highly repetitive query shapes (subject lookup, reification DBUri
expansion), yet every HTTP ``/match`` re-ran parsing, planning, and SQL.
:class:`~repro.cache.result_cache.ResultCache` memoizes complete result
sets keyed on the *normalized* query shape plus the data version the
rows were computed under, so a repeated hot read is a dict probe.

Invalidation is exact and free: every write transaction already bumps a
version (``rdf_serve_state$`` write_version on the server, the
connection ``data_version`` in process, the per-shard version vector on
a sharded engine).  A lookup under a newer version drops the entry —
the same idiom as the plan cache, extended with a byte cap because
result sets, unlike plans, can be large.

The read path is cache -> SQL: both in-process engines go through the
one :func:`~repro.cache.result_cache.read_through` helper, so the key,
the version gate, and the store-on-miss are written once.

See docs/result_cache.md for the key schema, the coherence argument,
and the batch wire protocol built on top.
"""

from repro.cache.normalize import normalized_key
from repro.cache.result_cache import (
    ResultCache,
    parse_cache_setting,
    read_through,
)

__all__ = ["ResultCache", "normalized_key", "parse_cache_setting",
           "read_through"]

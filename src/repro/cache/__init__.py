"""Versioned query-result caching for SDO_RDF_MATCH.

The serving gap this closes: the paper's workloads are read-heavy with
highly repetitive query shapes (subject lookup, reification DBUri
expansion), yet every HTTP ``/match`` re-ran parsing, planning, and SQL.
:class:`~repro.cache.result_cache.ResultCache` memoizes complete result
sets keyed on the *normalized* query shape plus the data version the
rows were computed under, so a repeated hot read is a dict probe.

There are two tiers, one switch each, and each keys on a version that
names a snapshot: ``RDFStore.enable_result_cache()`` on the store's own
connection ``data_version``, and ``repro serve --result-cache`` on the
durable ``rdf_serve_state$`` ``write_version``.  A lookup under a
newer version drops the entry — the same idiom as the plan cache,
extended with a byte cap because result sets, unlike plans, can be
large.  The in-process tier's one pass (key, version gate,
store-on-miss) is :func:`~repro.cache.result_cache.read_through`.

See docs/result_cache.md for the key schema, the coherence argument,
and the batch wire protocol built on top.
"""

from repro.cache.normalize import normalized_key
from repro.cache.result_cache import ResultCache

__all__ = ["ResultCache", "normalized_key"]

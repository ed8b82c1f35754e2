"""Exception hierarchy for the repro RDF store.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type at an API boundary.  The sub-hierarchy
mirrors the subsystems: term/syntax problems, storage problems, model
management problems, reification problems, and query/inference problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TermError(ReproError, ValueError):
    """An RDF term is malformed (bad URI, bad literal, bad blank node)."""


class ParseError(ReproError, ValueError):
    """A serialized RDF document or query string could not be parsed.

    Carries optional position information for error reporting.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (
                f", column {column})" if column is not None else ")")
        super().__init__(message + location)


class StorageError(ReproError):
    """A low-level database storage operation failed."""


class SchemaError(StorageError):
    """The central schema is missing or inconsistent."""


class ReadOnlyConnectionError(StorageError):
    """A write was attempted on a read-only (``mode=ro``) connection.

    Pooled server readers open read-only; mutations must go through
    the single-writer queue (:class:`repro.db.pool.WriterQueue`).
    """


class PoolTimeoutError(StorageError):
    """No pooled connection became available within the timeout.

    The serving layer maps this to HTTP 429 (backpressure) instead of
    letting requests queue without bound.
    """


class DeadlineExceededError(StorageError):
    """The request's deadline expired before the work completed.

    Raised wherever a deadline-carrying request waits or executes: an
    already-expired admission check, a pool acquire or writer-queue
    wait whose remaining budget ran out, or in-flight SQL aborted via
    ``sqlite3.Connection.interrupt()``.  The serving layer maps this
    to HTTP 504; the partial request trace is still filed in the
    slow-request log.
    """

    #: True when a deadline watchdog cut a statement off mid-flight
    #: (set where the sqlite error is mapped); the serving layer counts
    #: ``sql.interrupts`` from it, whichever connection raised.
    sql_interrupted = False


class WriterShutdownError(StorageError):
    """The writer queue shut down before this job could run.

    Set on the futures of jobs still queued when
    :meth:`repro.db.pool.WriterQueue.stop` hit its hard drain
    deadline (a stalled job) or was asked to fail fast.
    """


class ServerError(ReproError):
    """An HTTP request to the serving layer failed.

    Raised by :class:`repro.server.client.ReproClient`; carries the
    HTTP ``status`` and, for 429 responses, the server's suggested
    ``retry_after`` delay in seconds.
    """

    def __init__(self, message: str, status: int = 0,
                 retry_after: float | None = None) -> None:
        self.status = status
        self.retry_after = retry_after
        super().__init__(message)


class ModelError(ReproError):
    """An RDF model (graph) operation failed."""


class ModelNotFoundError(ModelError, LookupError):
    """The named RDF model does not exist in the database."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        super().__init__(f"RDF model {model_name!r} does not exist")


class ModelExistsError(ModelError):
    """An RDF model with this name already exists."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        super().__init__(f"RDF model {model_name!r} already exists")


class TripleNotFoundError(ReproError, LookupError):
    """A triple referenced by ID does not exist in rdf_link$."""

    def __init__(self, link_id: int) -> None:
        self.link_id = link_id
        super().__init__(f"no triple with LINK_ID={link_id} in rdf_link$")


class ValueNotFoundError(ReproError, LookupError):
    """A text value referenced by ID does not exist in rdf_value$."""

    def __init__(self, value_id: int) -> None:
        self.value_id = value_id
        super().__init__(f"no value with VALUE_ID={value_id} in rdf_value$")


class ReificationError(ReproError):
    """A reification operation failed (bad DBUri, incomplete quad, ...)."""


class DBUriError(ReificationError, ValueError):
    """A DBUri string is malformed or does not resolve to a row."""


class IncompleteQuadError(ReificationError):
    """A reification quad is missing one or more of its four statements."""

    def __init__(self, resource: str, missing: list[str]) -> None:
        self.resource = resource
        self.missing = list(missing)
        super().__init__(
            f"incomplete reification quad for {resource!r}: "
            f"missing {', '.join(sorted(self.missing))}")


class QueryError(ReproError):
    """An SDO_RDF_MATCH query is malformed or cannot be evaluated."""


class RulebaseError(ReproError):
    """A rulebase operation failed (unknown rulebase, bad rule syntax)."""


class RulebaseNotFoundError(RulebaseError, LookupError):
    """The named rulebase does not exist."""

    def __init__(self, rulebase_name: str) -> None:
        self.rulebase_name = rulebase_name
        super().__init__(f"rulebase {rulebase_name!r} does not exist")


class RulesIndexError(RulebaseError):
    """A rules-index operation failed (unknown index, stale index)."""


class StaleRulesIndexError(RulesIndexError):
    """A query needs a rules index whose source models changed since it
    was built (maintenance policy ``manual``).

    Run ``RulesIndexManager.rebuild``/``apply_delta`` (or the CLI's
    ``repro rules-index DB maintain``) to refresh it, or create the
    index with ``maintain="incremental"`` so writes keep it current.
    """

    def __init__(self, index_name: str) -> None:
        self.index_name = index_name
        super().__init__(
            f"rules index {index_name!r} is stale: its source models "
            "changed since it was built; rebuild or maintain it (or "
            "create it with maintain='incremental')")


class NetworkError(ReproError):
    """An NDM logical-network operation failed."""


class NetworkNotFoundError(NetworkError, LookupError):
    """The named logical network does not exist in the NDM catalog."""

    def __init__(self, network_name: str) -> None:
        self.network_name = network_name
        super().__init__(f"NDM network {network_name!r} does not exist")

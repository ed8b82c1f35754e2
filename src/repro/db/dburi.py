"""DBUri emulation: direct row-pointer URIs.

Oracle XML DB's *DBUri* is "a URI that points to a set of rows, a single
row, or a single column in a database" (paper section 5).  The streamlined
reification scheme generates, for the triple with LINK_ID ``n``, the
resource::

    /ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=n]

and stores the single statement ``<that-DBUri, rdf:type, rdf:Statement>``.

:class:`DBUri` is the parsed form; :class:`DBUriType` adds the
target-fetching behaviour of Oracle's object type (``getclob()`` /
``geturl()`` analogues) against our :class:`repro.db.connection.Database`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.db.connection import quote_identifier
from repro.errors import DBUriError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import Database

#: The schema prefix all our generated DBUris share; MDSYS is the Oracle
#: schema that owns the central RDF tables.
ORADB_PREFIX = "/ORADB/MDSYS/"

#: The one spelling of a row DBUri: :attr:`DBUri.text` fills it in with
#: Python values, :func:`link_dburi_sql` with an SQL expression.
_ROW_TEXT = "/ORADB/{0.schema}/{0.table}/ROW[{0.column}={1}]"

_DBURI_RE = re.compile(
    r"/ORADB/(?P<schema>[A-Za-z_][A-Za-z0-9_]*)/"
    r"(?P<table>[A-Za-z_][A-Za-z0-9_$]*)/"
    r"ROW\[(?P<column>[A-Za-z_][A-Za-z0-9_]*)=(?P<value>[0-9]+)\]")


def is_dburi(text: str) -> bool:
    """True when ``text`` is a syntactically valid row DBUri."""
    return _DBURI_RE.fullmatch(text) is not None


@dataclass(frozen=True, slots=True)
class DBUri:
    """A parsed single-row DBUri.

    The canonical spelling (:attr:`text`) is what is stored in
    ``rdf_value$`` as the reification resource.
    """

    schema: str
    table: str
    column: str
    value: int

    @classmethod
    def parse(cls, text: str) -> "DBUri":
        """Parse a DBUri string; raises :class:`DBUriError` on bad input."""
        match = _DBURI_RE.fullmatch(text)
        if match is None:
            raise DBUriError(f"malformed DBUri: {text!r}")
        return cls(schema=match.group("schema").upper(),
                   table=match.group("table").upper(),
                   column=match.group("column").upper(),
                   value=int(match.group("value")))

    @classmethod
    def for_link(cls, link_id: int) -> "DBUri":
        """The DBUri for the rdf_link$ row with the given LINK_ID.

        This is the resource the paper's reification constructor
        generates.
        """
        if link_id < 0:
            raise DBUriError(f"LINK_ID must be non-negative, got {link_id}")
        return cls(schema="MDSYS", table="RDF_LINK$",
                   column="LINK_ID", value=link_id)

    @property
    def text(self) -> str:
        """The canonical DBUri string."""
        return _ROW_TEXT.format(self, self.value)

    @property
    def is_link_uri(self) -> bool:
        """True when this DBUri points into rdf_link$ by LINK_ID."""
        return (self.schema == "MDSYS" and self.table == "RDF_LINK$"
                and self.column == "LINK_ID")

    @property
    def link_id(self) -> int:
        """The LINK_ID this DBUri points at (rdf_link$ DBUris only)."""
        if not self.is_link_uri:
            raise DBUriError(
                f"{self.text} does not point into MDSYS.RDF_LINK$")
        return self.value

    def __str__(self) -> str:
        return self.text


def link_dburi_sql(link_id_sql: str) -> str:
    """An SQL expression whose value is ``DBUri.for_link(n).text``,
    where ``n`` is the value of the SQL expression ``link_id_sql``.

    The point probes build a link's DBUri inside SQLite with this, so
    finding the reification resource costs no Python round trip.
    """
    return "'" + _ROW_TEXT.format(DBUri.for_link(0),
                                  f"' || {link_id_sql} || '") + "'"


class DBUriType:
    """The behavioural object: a DBUri bound to a database.

    Mirrors Oracle's ``DBUriType`` object methods: the URI can be asked
    for its target row.  Our central schema stores the rdf_link$ table in
    lower case without the ``$``-stripped name change, so the table-name
    mapping is handled here.
    """

    #: Maps the Oracle-cased table names appearing in DBUris to the
    #: physical table names in this database.
    _TABLE_MAP = {"RDF_LINK$": "rdf_link$", "RDF_VALUE$": "rdf_value$"}

    def __init__(self, uri: DBUri | str) -> None:
        self._uri = uri if isinstance(uri, DBUri) else DBUri.parse(uri)

    @property
    def uri(self) -> DBUri:
        return self._uri

    def geturl(self) -> str:
        """The URI text (Oracle's ``GETURL()``)."""
        return self._uri.text

    def _physical_table(self) -> str:
        table = self._TABLE_MAP.get(self._uri.table)
        if table is None:
            raise DBUriError(
                f"DBUri targets unknown table {self._uri.table}")
        return table

    def fetch_row(self, database: "Database") -> dict[str, Any]:
        """Resolve the DBUri to its row; single-row direct access.

        This is the operation that makes the streamlined reification
        scheme fast: one primary-key lookup instead of a quad join.
        """
        table = self._physical_table()
        row = database.query_one(
            f"SELECT * FROM {quote_identifier(table)} "
            f"WHERE {self._uri.column.lower()} = ?",
            (self._uri.value,))
        if row is None:
            raise DBUriError(
                f"{self._uri.text} does not resolve to a row")
        return dict(row)

    def exists(self, database: "Database") -> bool:
        """True when the target row exists."""
        table = self._physical_table()
        return database.query_one(
            f"SELECT 1 FROM {quote_identifier(table)} "
            f"WHERE {self._uri.column.lower()} = ?",
            (self._uri.value,)) is not None

    def __repr__(self) -> str:
        return f"DBUriType({self._uri.text!r})"

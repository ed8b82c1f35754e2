"""The ``rdf_model$`` registry and per-model views.

Creating a model records it in ``rdf_model$`` and creates the view
``rdfm_<model_name>`` over ``rdf_link$`` "that contains only data for the
model" (paper section 4.3) — the only window non-privileged users get on
the link table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.schema import LINK_TABLE, MODEL_TABLE, MODEL_VERSION_TABLE
from repro.errors import ModelError, ModelExistsError, ModelNotFoundError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.connection import Database

_MODEL_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True, slots=True)
class ModelInfo:
    """One rdf_model$ row."""

    model_id: int
    model_name: str
    table_name: str
    column_name: str

    @property
    def view_name(self) -> str:
        """The per-model view over rdf_link$."""
        return f"rdfm_{self.model_name}"


class ModelRegistry:
    """CRUD over ``rdf_model$`` plus per-model view management."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        # model_name (lowered) -> ModelInfo; model names are
        # case-insensitive like Oracle identifiers.  A rollback may
        # discard a model (and free its MODEL_ID): drop them all then.
        self._cache: dict[str, ModelInfo] = {}
        database.add_rollback_listener(self.invalidate_cache)

    @staticmethod
    def _normalize(model_name: str) -> str:
        return model_name.lower()

    def create(self, model_name: str, table_name: str,
               column_name: str) -> ModelInfo:
        """Register a model and create its ``rdfm_<model>`` view."""
        if not _MODEL_NAME_RE.match(model_name):
            raise ModelError(
                f"illegal model name {model_name!r}: must start with a "
                "letter and contain only letters, digits, underscore")
        name = self._normalize(model_name)
        if self.exists(name):
            raise ModelExistsError(model_name)
        cursor = self._db.execute(
            f'INSERT INTO "{MODEL_TABLE}" '
            "(model_name, table_name, column_name) VALUES (?, ?, ?)",
            (name, table_name, column_name))
        info = ModelInfo(int(cursor.lastrowid), name, table_name,
                         column_name)
        self._create_view(info)
        self._cache[name] = info
        self._db.bump_data_version()
        return info

    def _create_view(self, info: ModelInfo) -> None:
        self._db.execute(
            f'CREATE VIEW IF NOT EXISTS "{info.view_name}" AS '
            f'SELECT * FROM "{LINK_TABLE}" WHERE model_id = {info.model_id}')

    def drop(self, model_name: str) -> ModelInfo:
        """Remove the model row and its view.

        The model's triples must already be gone; the store facade
        handles cascading deletion.
        """
        info = self.get(model_name)
        self._db.drop_view(info.view_name)
        self._db.execute(
            f'DELETE FROM "{MODEL_TABLE}" WHERE model_id = ?',
            (info.model_id,))
        if self._db.table_exists(MODEL_VERSION_TABLE):
            self._db.execute(
                f'DELETE FROM "{MODEL_VERSION_TABLE}" '
                "WHERE model_id = ?", (info.model_id,))
        self._cache.pop(info.model_name, None)
        self._db.bump_data_version()
        return info

    def exists(self, model_name: str) -> bool:
        name = self._normalize(model_name)
        if name in self._cache:
            return True
        return self._db.query_one(
            f'SELECT 1 FROM "{MODEL_TABLE}" WHERE model_name = ?',
            (name,)) is not None

    def get(self, model_name: str) -> ModelInfo:
        """Model info by name; raises ModelNotFoundError."""
        name = self._normalize(model_name)
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        row = self._db.query_one(
            f'SELECT * FROM "{MODEL_TABLE}" WHERE model_name = ?', (name,))
        if row is None:
            raise ModelNotFoundError(model_name)
        info = ModelInfo(int(row["model_id"]), row["model_name"],
                         row["table_name"], row["column_name"])
        self._cache[name] = info
        return info

    def get_by_id(self, model_id: int) -> ModelInfo:
        """Model info by MODEL_ID."""
        row = self._db.query_one(
            f'SELECT * FROM "{MODEL_TABLE}" WHERE model_id = ?',
            (model_id,))
        if row is None:
            raise ModelNotFoundError(f"<model_id={model_id}>")
        return ModelInfo(int(row["model_id"]), row["model_name"],
                         row["table_name"], row["column_name"])

    def __iter__(self) -> Iterator[ModelInfo]:
        for row in self._db.query_all(
                f'SELECT * FROM "{MODEL_TABLE}" ORDER BY model_id'):
            yield ModelInfo(int(row["model_id"]), row["model_name"],
                            row["table_name"], row["column_name"])

    def invalidate_cache(self) -> None:
        self._cache.clear()

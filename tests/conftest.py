"""Shared fixtures: fresh stores and the IC scenario.

The stores are in memory, unless ``REPRO_DURABILITY`` names a profile:
then each opens a fresh file in pytest's temporary directory, because
an in-memory SQLite database never enters WAL and ignores
``synchronous`` and checkpoints, so a durability run in memory would
test nothing the default run does not.
"""

from __future__ import annotations

import os

import pytest

from repro.core.apptable import ApplicationTable
from repro.core.sdo_rdf import SDO_RDF
from repro.core.store import RDFStore
from repro.db.connection import Database
from repro.inference.sdo_rdf_inference import SDO_RDF_INFERENCE
from repro.workloads.intel import IntelScenario


def _path(tmp_path_factory, name: str) -> str:
    """``:memory:``, or a fresh file when a durability profile is set."""
    if not os.environ.get("REPRO_DURABILITY"):
        return ":memory:"
    return str(tmp_path_factory.mktemp("fixture") / name)


@pytest.fixture
def database(tmp_path_factory):
    """A fresh database (see the module docstring for where)."""
    db = Database(_path(tmp_path_factory, "database.db"))
    yield db
    db.close()


@pytest.fixture
def store(tmp_path_factory):
    """A fresh RDF store with the central schema (see the module
    docstring for where)."""
    rdf_store = RDFStore(_path(tmp_path_factory, "store.db"))
    yield rdf_store
    rdf_store.close()


@pytest.fixture
def sdo_rdf(store):
    """The SDO_RDF package over the fresh store."""
    return SDO_RDF(store)


@pytest.fixture
def inference(store):
    """The SDO_RDF_INFERENCE package over the fresh store."""
    return SDO_RDF_INFERENCE(store)


@pytest.fixture
def cia_table(store, sdo_rdf):
    """An application table with a registered 'cia' model."""
    ApplicationTable.create(store, "ciadata")
    sdo_rdf.create_rdf_model("cia", "ciadata")
    return ApplicationTable.open(store, "ciadata")


@pytest.fixture
def intel(store):
    """The full Intelligence Community scenario with rules index."""
    return IntelScenario.build(store)

"""Shared fixtures for the service-level suites."""

import pytest

from repro.core import server as server_module
from repro.spatial import make_index
from repro.storage import LocalDataStore

#: Every store a leaf can run on: the columnar backend (the service
#: default), and the objects backend over each index kind ``make_index``
#: offers (the quadtree is the ablation a service can pick by name).
#: Service answers must not depend on which one a deployment runs.  The
#: index kind is a store-level choice, so the ``index`` lanes reach it by
#: building every leaf store -- split and merge children included -- over
#: that kind, not through a service option.
SERVICE_LANES = [
    pytest.param({"backend": "objects"}, id="quadtree"),
    pytest.param({"backend": "objects", "index": "linear"}, id="linear"),
    pytest.param({"backend": "objects", "index": "columnar"}, id="columnar-index"),
    pytest.param({}, id="columnar"),
]


@pytest.fixture(params=SERVICE_LANES)
def lane(request, monkeypatch):
    """``LocationService`` keyword arguments selecting one store lane."""
    kwargs = dict(request.param)
    kind = kwargs.pop("index", None)
    if kind is not None:
        monkeypatch.setattr(
            server_module,
            "LocalDataStore",
            lambda **store_kwargs: LocalDataStore(index=make_index(kind), **store_kwargs),
        )
    return kwargs

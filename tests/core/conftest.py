"""Shared fixtures for the service-level suites."""

import pytest

#: Every store a ``LocationServer`` can be built on: the objects backend
#: over each index kind ``make_index`` offers, and the columnar backend.
#: Service answers must not depend on which one a deployment picks.
SERVICE_LANES = [
    pytest.param({}, id="quadtree"),
    pytest.param({"index_kind": "linear"}, id="linear"),
    pytest.param({"index_kind": "columnar"}, id="columnar-index"),
    pytest.param({"backend": "columnar"}, id="columnar"),
]


@pytest.fixture(params=SERVICE_LANES)
def lane(request):
    """``LocationService`` keyword arguments selecting one store lane."""
    return request.param

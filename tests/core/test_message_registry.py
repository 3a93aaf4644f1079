"""Dead-message hygiene: every protocol message type has a live consumer.

A message type earns its place in ``repro.core.messages`` in one of
three ways: it is a ``Response`` (resolves a parked request future), it
is a nested payload another message carries in its fields, or exactly
one role of the system — the hierarchy server or the client side —
registers a handler for it.  A type that is none of these, or that no
code under ``src/`` ever constructs, is a lane kept alive only by its
own tests.  The tables that *name* message types by string
(``PROTOCOL_LANE_MESSAGE_TYPES``, the calibrated cost model) must name
only types that exist.
"""

import inspect
import pathlib
import re
import typing

import repro
from repro.baselines.central import CentralLocationServer
from repro.baselines.home import HomeServer, HomeServerClient
from repro.core import LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.geo import Rect
from repro.runtime.base import Message, Response
from repro.sim.calibration import CalibrationResult
from repro.sim.metrics import PROTOCOL_LANE_MESSAGE_TYPES

MESSAGE_TYPES = {
    name: cls
    for name, cls in vars(m).items()
    if inspect.isclass(cls)
    and issubclass(cls, Message)
    and cls.__module__ == m.__name__
}


def handled_types(*endpoints) -> set[str]:
    return {t.__name__ for ep in endpoints for t in ep._handlers}


def payload_types() -> set[str]:
    """Types that appear inside another message's field annotations."""
    nested: set[str] = set()
    for cls in MESSAGE_TYPES.values():
        for annotation in typing.get_type_hints(cls).values():
            nested.update(
                name
                for name in re.findall(r"\w+", str(annotation))
                if name in MESSAGE_TYPES and name != cls.__name__
            )
    return nested


def test_every_message_type_has_exactly_one_consumer_role():
    svc = LocationService(build_table2_hierarchy(1500.0))
    server = handled_types(svc.servers["root"], svc.servers["root.0"])
    client = handled_types(
        svc.new_client(entry_server="root.0"), svc.new_tracked_object("probe")
    )
    area = Rect(0, 0, 100, 100)
    baseline = handled_types(
        CentralLocationServer(area),
        HomeServer("home-0", area),
        HomeServerClient("home-client", 1, area),
    )
    nested = payload_types()
    dead = []
    for name, cls in MESSAGE_TYPES.items():
        if issubclass(cls, Response) or name in nested:
            continue
        roles = (name in server) + (name in client)
        if roles != 1:
            dead.append((name, roles))
    assert dead == []
    # The baselines speak a subset of the same vocabulary, nothing else.
    assert baseline <= server | client


def test_every_message_type_is_constructed_somewhere_in_src():
    src = pathlib.Path(repro.__file__).parent
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
        if path.name != "messages.py"
    )
    never_built = [
        name for name in MESSAGE_TYPES if not re.search(rf"\b{name}\(", text)
    ]
    assert never_built == []


def test_write_lane_binds_only_the_edge_pair_and_the_envelopes():
    svc = LocationService(build_table2_hierarchy(1500.0))
    write_lane = {
        name
        for name in handled_types(svc.servers["root.0"])
        if name.startswith(("Update", "Handover", "Deregister")) or "Teardown" in name
    }
    assert write_lane == {
        "UpdateReq",
        "UpdateBatchReq",
        "HandoverBatchReq",
        "DeregisterReq",
        "DeregisterBatchReq",
        "PathTeardownBatch",
        "PathTeardownNack",
    }


def test_string_tables_name_only_existing_types():
    assert PROTOCOL_LANE_MESSAGE_TYPES <= set(MESSAGE_TYPES)
    costs = CalibrationResult(1e-5, 1e-5, 1e-6, 1e-4).cost_model().service
    assert set(costs) <= set(MESSAGE_TYPES)
    assert "HandoverBatchReq" in costs

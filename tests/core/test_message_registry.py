"""Dead-message hygiene: every protocol message type has a live consumer.

A message type earns its place in ``repro.core.messages`` in one of
three ways: it is a ``Response`` (resolves a parked request future), it
is a nested payload another message carries in its fields, or exactly
one role of the system — the hierarchy server or the client side —
registers a handler for it.  A type that is none of these, or that no
code under ``src/`` ever constructs, is a lane kept alive only by its
own tests.  The tables that *name* message types by string
(``PROTOCOL_LANE_MESSAGE_TYPES``, the cost model's service table, the latency
model's fan-out pair) must name only types that exist.

Schema hygiene rides along: every field annotation of every wire type
must resolve to a kind :mod:`repro.runtime.schema` supports, so a future
``dict`` / ``Any`` field fails here and not on the first frame, and every
wire type must get a compiled row builder (a slotted dataclass), so one
declared without ``slots=True`` fails here instead of decoding slowly.
"""

import dataclasses
import inspect
import pathlib
import re
import typing

import pytest

import repro
from repro.baselines.central import CentralLocationServer
from repro.baselines.home import HomeServer, HomeServerClient
from repro.core import LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.errors import WireError
from repro.geo import Polygon, Rect
from repro.net.wire import registered_types
from repro.runtime.base import Message, Response
from repro.runtime.latency import FAN_OUT_FORWARDS, FAN_OUT_SUB_RESULTS
from repro.runtime.schema import Kind, builder_of, schema_of
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


def constructs(text: str, name: str) -> bool:
    """A call ``Name(`` or a compiled row builder ``builder_of(m.Name)``
    (hot paths build records through the latter)."""
    return re.search(rf"\b{name}\(|\bbuilder_of\((?:\w+\.)?{name}\)", text) is not None


def test_every_message_type_is_constructed_somewhere_in_src():
    src = pathlib.Path(repro.__file__).parent
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
        if path.name != "messages.py"
    )
    never_built = [name for name in MESSAGE_TYPES if not constructs(text, name)]
    assert never_built == []


def test_a_row_builder_binding_counts_as_construction():
    assert constructs("_ITEM = builder_of(m.HandoverBatchItem)", "HandoverBatchItem")
    assert constructs("m.HandoverBatchItem(sighting=s)", "HandoverBatchItem")
    assert not constructs("items: tuple[HandoverBatchItem, ...]", "HandoverBatchItem")
    assert not constructs("builder_of(m.HandoverBatchItems)", "HandoverBatchItem")


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


def test_read_lane_binds_only_the_edge_pair_and_the_fanout():
    svc = LocationService(build_table2_hierarchy(1500.0))
    leaf = svc.servers["root.0"]
    read_lane = {
        name
        for name in handled_types(leaf)
        if name.startswith(("RangeQuery", "NeighborQuery", "NNCandidates"))
    }
    assert read_lane == {
        "RangeQueryReq",
        "RangeQueryBatchFwd",
        "RangeQueryBatchSubRes",
        "NeighborQueryReq",
        "NNCandidatesBatchFwd",
        "NNCandidatesBatchSubRes",
    }
    assert [name for name in vars(leaf) if "collector" in name] == ["_batch_collectors"]


def test_string_tables_name_only_existing_types():
    assert PROTOCOL_LANE_MESSAGE_TYPES <= set(MESSAGE_TYPES)
    assert FAN_OUT_FORWARDS | FAN_OUT_SUB_RESULTS <= set(MESSAGE_TYPES)
    costs = CalibrationResult(1e-5, 1e-5, 1e-6, 1e-4).cost_model().service
    assert set(costs) <= set(MESSAGE_TYPES)
    assert {"HandoverBatchReq"} | FAN_OUT_FORWARDS <= set(costs)


def _classes_under(kind: Kind):
    """Every struct class a kind can hold (schema_of raises on a bad one)."""
    if kind.tag == "struct":
        yield kind.arg
    elif kind.tag in ("opt", "seq"):
        yield from _classes_under(kind.arg)
    elif kind.tag in ("tuple", "union"):
        for inner in kind.arg:
            yield from _classes_under(inner)
    else:
        assert kind.tag in ("str", "float", "int", "bool", "bytes"), kind


def _wire_closure() -> set:
    """Every ``repro.*`` wire type plus every struct class it embeds."""
    import repro.net.control  # noqa: F401  (control plane and fragments join the sweep)
    import repro.net.udp  # noqa: F401

    todo = [cls for cls in registered_types().values() if cls.__module__.startswith("repro.")]
    assert set(MESSAGE_TYPES.values()) <= set(todo)
    assert {"AdoptHierarchyReq", "Fragment", "SubscribeReq"} <= {cls.__name__ for cls in todo}
    seen = set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        for field in schema_of(cls):  # WireError names the class and field
            todo.extend(_classes_under(field.kind))
    return seen


def test_every_wire_type_annotation_has_a_schema_kind():
    seen = _wire_closure()
    # The value types the messages embed were all reached through them.
    assert {"Point", "Rect", "Polygon", "SightingRecord", "ServerConfig", "ChildRef",
            "AreaOccupancy", "Proximity"} <= {cls.__name__ for cls in seen}


def test_every_wire_type_gets_a_compiled_row_builder():
    # The decoder builds records through ``builder_of``; a wire type
    # declared without ``slots=True`` would silently fall back to its
    # ``__init__``.  Polygon (not a dataclass) is the one exception.
    fallbacks = sorted(
        cls.__name__ for cls in _wire_closure() if builder_of(cls) is cls and cls is not Polygon
    )
    assert fallbacks == []


@pytest.mark.parametrize("annotation", [dict, typing.Any, list[int], tuple, int | str])
def test_unsupported_annotation_is_refused_by_name(annotation):
    cls = dataclasses.make_dataclass("Bad", [("ok", int), ("payload", annotation)])
    with pytest.raises(WireError, match="payload"):
        schema_of(cls)

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

Delivery hygiene: a handler is spawned as a task only when it waits.
An ``async def`` handler must await in its own body, and the paths
that never leave the entry server answer without any spawn.

Schema hygiene rides along: every field annotation of every wire type
must resolve to a kind :mod:`repro.runtime.schema` supports, so a future
``dict`` / ``Any`` field fails here and not on the first frame, and every
wire type must get a compiled row builder (a slotted dataclass), so one
declared without ``slots=True`` fails here instead of decoding slowly.
"""

import ast
import collections
import dataclasses
import inspect
import pathlib
import re
import textwrap
import typing

import pytest

import repro
from repro.baselines.central import CentralLocationServer
from repro.baselines.home import HomeServer, HomeServerClient
from repro.core import LocationService, SensorCell, StationaryTracker, build_table2_hierarchy
from repro.core import messages as m
from repro.core.service import drive_update_envelope
from repro.errors import WireError
from repro.geo import Point, Polygon, Rect
from repro.runtime.base import Message, Response
from repro.runtime.latency import FAN_OUT_FORWARDS, FAN_OUT_SUB_RESULTS
from repro.runtime.schema import Kind, builder_of, schema_of
from repro.runtime.simnet import SimContext
from repro.sim.calibration import CalibrationResult
from repro.sim.metrics import PROTOCOL_LANE_MESSAGE_TYPES

from tests.net.frame_surgery import registered_types

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
    # A fan-out's collector is a row of the one pending table, not a
    # table of its own.
    assert [name for name in vars(leaf) if "collector" in name] == []


def _handlers_by_class() -> dict[str, dict[str, object]]:
    """Every registered handler of every endpoint role, by owning class."""
    svc = LocationService(build_table2_hierarchy(1500.0))
    tracker = StationaryTracker("t", [SensorCell("c", Rect(0, 0, 10, 10))], "root.0")
    area = Rect(0, 0, 100, 100)
    endpoints = (
        svc.servers["root"],
        svc.servers["root.0"],
        svc.new_client(entry_server="root.0"),
        svc.new_tracked_object("probe"),
        tracker,
        CentralLocationServer(area),
        HomeServer("home-0", area),
        HomeServerClient("home-client", 1, area),
    )
    by_class: dict[str, dict[str, object]] = collections.defaultdict(dict)
    for endpoint in endpoints:
        for handler in endpoint._handlers.values():
            func = handler.__func__
            by_class[type(handler.__self__).__name__][func.__name__] = func
    return by_class


def _awaits_in_own_body(func) -> bool:
    """Whether ``func`` awaits outside any function nested in it."""
    (node,) = ast.parse(textwrap.dedent(inspect.getsource(func))).body
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    todo = list(node.body)
    while todo:
        child = todo.pop()
        if isinstance(child, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            return True
        if not isinstance(child, nested):
            todo.extend(ast.iter_child_nodes(child))
    return False


def test_an_async_handler_awaits_in_its_own_body():
    by_class = _handlers_by_class()
    assert set(by_class) == {
        "LocationServer", "EventEngine", "LocationClient", "TrackedObject",
        "StationaryTracker", "CentralLocationServer", "HomeServer", "HomeServerClient",
    }
    spawned_whole = {
        (owner, name)
        for owner, handlers in by_class.items()
        for name, func in handlers.items()
        if inspect.iscoroutinefunction(func)
    }
    assert [
        (owner, name)
        for owner, name in sorted(spawned_whole)
        if not _awaits_in_own_body(by_class[owner][name])
    ] == []
    # The handlers whose entry path always waits; every other handler
    # runs inline at delivery.
    assert spawned_whole == {
        ("LocationServer", "_on_deregister"),
        ("LocationServer", "_on_deregister_batch"),
        ("LocationServer", "_on_range_query"),
        ("LocationServer", "_on_neighbor_query"),
    }


def test_only_a_path_that_waits_spawns(monkeypatch):
    svc = LocationService(build_table2_hierarchy(1500.0))
    svc.register("near", Point(100, 100))  # agent root.0
    svc.register("far", Point(1400, 1400))  # agent root.3
    svc.settle()
    spawns: collections.Counter = collections.Counter()
    spawn = SimContext.spawn

    def counting(ctx, coro, name="task"):
        if ctx.address in svc.servers:
            spawns[ctx.address] += 1
        return spawn(ctx, coro, name)

    monkeypatch.setattr(SimContext, "spawn", counting)

    def spawned(drive) -> dict[str, int]:
        spawns.clear()
        drive()
        svc.settle()
        return dict(spawns)

    def envelope(pos: Point) -> None:
        reporter = svc._reporter()
        svc.run(drive_update_envelope(reporter, svc, "root.0", [("near", pos, 10.0)], None, 0))

    # A registration's path creation is an acked pending row per hop,
    # re-sent on expiry, not a task.
    assert spawned(lambda: svc.register("third", Point(200, 200))) == {}
    # The entry server is the agent: answered inline, no task anywhere.
    assert spawned(lambda: svc.pos_query("near", entry_server="root.0")) == {}
    assert spawned(lambda: envelope(Point(110, 110))) == {}
    # Only the entry server's wait for the agent's answer is a task; the
    # forward at the root and the answer at root.3 run inline.
    assert spawned(lambda: svc.pos_query("far", entry_server="root.0")) == {"root.0": 1}
    # A border crossing: one continuation at the old agent, one at the
    # root, which waits on the new agent's admission (answered inline).
    assert spawned(lambda: envelope(Point(1400, 100))) == {"root.0": 1, "root": 1}
    assert svc.servers["root.0"].visitors.leaf_record("near") is None
    svc.check_consistency()


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

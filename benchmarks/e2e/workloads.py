"""The four workloads: why each exists, how big it is, and its seeded inputs.

Everything here is pure input generation.  One ``random.Random(seed)``
drives placement, movement and the operation list; the program under test
only ever sees the generated operations (``driver.py`` turns them into
protocol messages).  A workload is a list of *groups*: the two closed-loop
clients drain one group, meet at a barrier, and start the next.  The
barrier is what makes answers checkable — an update group and the query
group after it never overlap in time — and groups of one kind are made
alike, so each is one sample of the same thing and the run can set aside
the ones another tenant of the machine disturbed (see ``metrics.py``).

Sizes are operation *counts* derived from ``--seconds`` through frozen
rates (tuned once on the 2-core reference box so a run measures for about
0.9 x ``--seconds``).  The same seed, seconds and scale therefore give the
same operations, byte for byte, on any machine and any commit.

Operation kinds are stratified, never left to chance: a workload's share of
local and remote position queries, of the four range-query spans, and of NN
probes whose first ring stays inside one leaf or crosses a border is exact.
Local and remote operations differ several-fold in latency; were the mix
left to the seed, a percentile would jump between the two modes.  Four in
five position queries and NN probes are local, so that a p50 sits well
inside the local mode and a p95 well inside the remote one; range queries
are weighted (1 : 2 : 1 : 1) so that their p50 sits inside one span's mode
instead of on the edge between two.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

AREA_SIDE = 1500.0
BORDER = AREA_SIDE / 2  # the inner borders x = 750 and y = 750
ENVELOPE = 100  # sightings per UpdateBatchReq
STEP = 5.0  # metres an object moves per tick
RANGE_SIDE = 50.0
REQ_ACC = 50.0
REQ_OVERLAP = 0.3
NN_RADIUS = 100.0  # the servers' nn_initial_radius
#: half-side of a range query's dispatch rect: the 50 m area enlarged by
#: ``effective_margin`` (= ``REQ_ACC`` for these parameters).
_DISPATCH_HALF = RANGE_SIDE / 2 + REQ_ACC
_EDGE = 0.5  # keep every position this far from any leaf border
WARMUP_SHARE = 0.05
SCALES = {"full": 1.0, "smoke": 0.05}


class Op(NamedTuple):
    """One pre-generated operation.

    ``entry`` is the server the driver addresses (the agent leaf for an
    update, the entry leaf for a query).  ``arg`` is ``(timestamp, indexes,
    xs, ys)`` for ``update``, an object index for ``pos``, a rect 4-tuple
    for ``range`` and a point 2-tuple for ``nn``.
    """

    kind: str  # "update" | "pos" | "range" | "nn"
    sub: str  # stratum, e.g. "range_remote2"
    entry: str
    arg: object


@dataclass(frozen=True)
class Workload:
    name: str
    lane: str  # "udp" | "tcp" | "inproc"
    backend: str | None  # None: whatever LocationServer() defaults to
    objects: int
    placement: str  # "uniform" | "borders" (within 100 m of x = 750 / y = 750)
    why: str
    #: frozen sizing: counts per nominal second, group shapes, strata.
    rates: dict


_RANGE_SUBS = ("range_local", "range_remote1", "range_remote2", "range_remote4")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady_update_udp",
            "udp",
            None,
            10_000,
            "uniform",
            "Position updates, large frames: net.wire and runtime.validation do "
            "most of the work, core.server routing almost none.",
            {
                "ticks": 1.7,  # per second; every object reports once per tick
                "parts": 1,  # update groups per tick
                "probes": {  # read probes after each update group
                    "pos_local": 38,
                    "pos_remote": 10,
                    "range_local": 4,
                    "range_remote1": 8,
                    "range_remote2": 4,
                    "range_remote4": 4,
                    "nn_local": 19,
                    "nn_remote": 5,
                },
            },
        ),
        Workload(
            "query_mix_tcp",
            "tcp",
            None,
            10_000,
            "uniform",
            "Table 2's query rows, small frames over TCP: per-message socket cost, "
            "core.server fan-out and storage/spatial query paths; updates near idle.",
            {
                "rounds": 4 / 3,  # per second; one group per kind of query each
                "round": {  # 40 % pos, 40 % range, 20 % NN
                    "pos_local": 139,
                    "pos_remote": 35,
                    "range_local": 35,
                    "range_remote1": 70,
                    "range_remote2": 35,
                    "range_remote4": 34,
                    "nn_local": 70,
                    "nn_remote": 17,
                },
                "ticks": 0.4,
                "parts": 4,
            },
        ),
        Workload(
            "handover_burst_udp",
            "udp",
            None,
            10_000,
            "borders",
            "Objects hop across leaf borders: HandoverBatchReq, path updates and "
            "storage.visitor_db; the update envelope through the slow lane.",
            {
                "ticks": 0.6,
                "parts": 4,
                "mirrored": 0.5,  # share of a tick's objects that change leaf
                "probes": {
                    "pos_local": 19,
                    "pos_remote": 5,
                    # Only a rect across a border meets the crowd here; the
                    # other spans look at empty ground.
                    "range_local": 1,
                    "range_remote1": 1,
                    "range_remote2": 9,
                    "range_remote4": 1,
                    "nn_remote": 18,  # every object here lives beside a border
                },
            },
        ),
        Workload(
            "mixed_inproc_columnar",
            "inproc",
            "columnar",
            100_000,
            "uniform",
            "Writes beside reads on the columnar store with no net.* in the path: "
            "a wire change must read no change here; 10x the working set.",
            {
                "rounds": 1.8,  # per second
                "mixed_groups": 2,  # per round, before its scans
                "mixed": {  # see _mixed_inproc for why twenty pos to an envelope
                    "update": 14,
                    "pos_local": 240,
                    "pos_remote": 60,
                },
                "scans": {
                    "range_local": 4,
                    "range_remote1": 8,
                    "range_remote2": 4,
                    "range_remote4": 4,
                    "nn_local": 16,
                    "nn_remote": 4,
                },
            },
        ),
    )
}


class World:
    """Planned object positions and the leaf geometry around them.

    ``xs``/``ys`` hold where each object will be once every operation
    generated so far has been acknowledged.  Generators move objects as
    they emit the updates that report the move, so at every group boundary
    the plan equals what the cluster has been told.
    """

    def __init__(self, leaves: list[tuple[str, tuple[float, float, float, float]]]):
        #: ``(leaf id, (min_x, min_y, max_x, max_y))`` in hierarchy order.
        self.leaves = leaves
        self.xs: list[float] = []
        self.ys: list[float] = []
        #: "borders" placement only: the border each object straddles
        #: (0: x = 750, 1: y = 750).
        self.axes: list[int] = []
        self.update_groups = 0

    def leaf_index(self, x: float, y: float) -> int:
        for k, (_leaf, (x0, y0, x1, y1)) in enumerate(self.leaves):
            if x0 <= x < x1 and y0 <= y < y1:
                return k
        raise ValueError(f"({x}, {y}) is outside every leaf")

    def leaf_of(self, i: int) -> int:
        return self.leaf_index(self.xs[i], self.ys[i])

    def by_leaf(self, indexes) -> list[list[int]]:
        """``indexes`` split by the leaf each object is in now."""
        out: list[list[int]] = [[] for _ in self.leaves]
        for i in indexes:
            out[self.leaf_of(i)].append(i)
        return out


def table2_leaves() -> list[tuple[str, tuple[float, float, float, float]]]:
    """Leaf ids and areas of ``build_table2_hierarchy(1500.0)``."""
    from repro.core.hierarchy import build_table2_hierarchy

    hierarchy = build_table2_hierarchy(AREA_SIDE)
    leaves = []
    for leaf_id in hierarchy.leaf_ids():
        area = hierarchy.config(leaf_id).area
        leaves.append((leaf_id, (area.min_x, area.min_y, area.max_x, area.max_y)))
    return leaves


def _clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


# -- placement ----------------------------------------------------------------


def _place_uniform(rng: random.Random, world: World, count: int) -> None:
    for _ in range(count):
        while True:
            x, y = rng.uniform(_EDGE, AREA_SIDE - _EDGE), rng.uniform(_EDGE, AREA_SIDE - _EDGE)
            if abs(x - BORDER) >= _EDGE and abs(y - BORDER) >= _EDGE:
                break
        world.xs.append(x)
        world.ys.append(y)


#: where a border object's *free* coordinate may roam: well clear of the
#: other inner border, so a mirror always lands in a sibling leaf.
_FREE_BANDS = ((10.0, BORDER - 110.0), (BORDER + 110.0, AREA_SIDE - 10.0))
_BORDER_REACH = 100.0


def _place_near_borders(rng: random.Random, world: World, count: int) -> None:
    """Objects within 100 m of x = 750 or y = 750."""
    for _ in range(count):
        axis = rng.randrange(2)
        near = BORDER + rng.choice((-1, 1)) * rng.uniform(_EDGE, _BORDER_REACH)
        free = rng.uniform(*rng.choice(_FREE_BANDS))
        world.xs.append(near if axis == 0 else free)
        world.ys.append(free if axis == 0 else near)
        world.axes.append(axis)


# -- movement -----------------------------------------------------------------


def _step_in_leaf(rng: random.Random, world: World, i: int) -> None:
    _leaf, (x0, y0, x1, y1) = world.leaves[world.leaf_of(i)]
    world.xs[i] = _clamp(world.xs[i] + rng.uniform(-STEP, STEP), x0 + _EDGE, x1 - _EDGE)
    world.ys[i] = _clamp(world.ys[i] + rng.uniform(-STEP, STEP), y0 + _EDGE, y1 - _EDGE)


def _step_near_border(rng: random.Random, world: World, i: int) -> None:
    """A <= 5 m step that stays on its side of, and within reach of, its border."""
    axis = world.axes[i]
    coords = [world.xs[i], world.ys[i]]
    near, free = coords[axis], coords[1 - axis]
    side = 1.0 if near > BORDER else -1.0
    offset = _clamp(abs(near - BORDER) + rng.uniform(-STEP, STEP), _EDGE, _BORDER_REACH)
    band = _FREE_BANDS[0] if free < BORDER else _FREE_BANDS[1]
    coords[axis] = BORDER + side * offset
    coords[1 - axis] = _clamp(free + rng.uniform(-STEP, STEP), *band)
    world.xs[i], world.ys[i] = coords


def _mirror(world: World, i: int) -> None:
    """Across the object's border, into the sibling leaf."""
    if world.axes[i] == 0:
        world.xs[i] = AREA_SIDE - world.xs[i]
    else:
        world.ys[i] = AREA_SIDE - world.ys[i]


def _update_group(world: World, indexes, move) -> list[Op]:
    """Move ``indexes`` and report it: one envelope per <= 100 objects that
    shared an agent (the leaf they were in *before* the move)."""
    agents = world.by_leaf(indexes)
    for i in indexes:
        move(i)
    world.update_groups += 1
    timestamp = float(world.update_groups)
    ops = []
    for (leaf_id, _area), members in zip(world.leaves, agents):
        for start in range(0, len(members), ENVELOPE):
            chunk = members[start : start + ENVELOPE]
            arg = (timestamp, chunk, [world.xs[i] for i in chunk], [world.ys[i] for i in chunk])
            ops.append(Op("update", "update", leaf_id, arg))
    return ops


def _tick_parts(count: int, parts: int) -> list[range]:
    """The population cut into ``parts`` index ranges; one tick reports each once."""
    return [range(p * count // parts, (p + 1) * count // parts) for p in range(parts)]


# -- queries ------------------------------------------------------------------


def _other_leaf(rng: random.Random, world: World, k: int) -> int:
    return rng.choice([j for j in range(len(world.leaves)) if j != k])


def _range_center(rng: random.Random, world: World, sub: str) -> tuple[float, float]:
    """Centre of a 50 m x 50 m query whose dispatch rect covers exactly the
    leaves ``sub`` names."""
    inside = _DISPATCH_HALF + _EDGE  # dispatch rect stays inside one leaf
    straddle = _DISPATCH_HALF - 5.0  # dispatch rect surely crosses a border
    if sub == "range_remote4":
        return (
            BORDER + rng.uniform(-straddle, straddle),
            BORDER + rng.uniform(-straddle, straddle),
        )
    if sub == "range_remote2":
        across = BORDER + rng.uniform(-straddle, straddle)
        along = rng.uniform(
            *rng.choice(((inside, BORDER - inside), (BORDER + inside, AREA_SIDE - inside)))
        )
        return (across, along) if rng.randrange(2) else (along, across)
    _leaf, (x0, y0, x1, y1) = world.leaves[rng.randrange(len(world.leaves))]
    return rng.uniform(x0 + inside, x1 - inside), rng.uniform(y0 + inside, y1 - inside)


def _nn_probe(rng: random.Random, world: World, sub: str) -> tuple[float, float]:
    """"Who is nearest to me": a point within 20 m of some object, so the
    first ring always finds someone.  (A probe in empty space doubles its
    radius until the answer hauls every object — a different query, and over
    UDP a timeout.)  ``nn_local``: that ring stays inside one leaf;
    ``nn_remote``: it crosses an inner border and fans out."""
    while True:
        i = rng.randrange(len(world.xs))
        x = _clamp(world.xs[i] + rng.uniform(-20.0, 20.0), _EDGE, AREA_SIDE - _EDGE)
        y = _clamp(world.ys[i] + rng.uniform(-20.0, 20.0), _EDGE, AREA_SIDE - _EDGE)
        to_border = min(abs(x - BORDER), abs(y - BORDER))
        if abs(to_border - NN_RADIUS) < 1.0 or to_border < _EDGE:
            continue  # too close to call
        if (to_border > NN_RADIUS) == (sub == "nn_local"):
            return x, y


def _query(rng: random.Random, world: World, sub: str) -> Op:
    leaves = world.leaves
    if sub in ("pos_local", "pos_remote"):
        i = rng.randrange(len(world.xs))
        k = world.leaf_of(i)
        entry = k if sub == "pos_local" else _other_leaf(rng, world, k)
        return Op("pos", sub, leaves[entry][0], i)
    if sub in _RANGE_SUBS:
        x, y = _range_center(rng, world, sub)
        k = world.leaf_index(x, y)
        entry = _other_leaf(rng, world, k) if sub == "range_remote1" else k
        half = RANGE_SIDE / 2
        return Op("range", sub, leaves[entry][0], (x - half, y - half, x + half, y + half))
    x, y = _nn_probe(rng, world, sub)
    return Op("nn", sub, leaves[world.leaf_index(x, y)][0], (x, y))


def _kind(sub: str) -> str:
    return sub.split("_")[0]


def _query_groups(rng: random.Random, world: World, counts: dict) -> list[list[Op]]:
    """One group per kind of query (pos, range, nn), each with exactly the
    strata ``counts`` asks for, shuffled.

    Kinds are kept apart, as the paper measured them: a 0.3 ms position
    query that shares the one thread with 5-25 ms scans reports a queueing
    delay whose median moves by a quarter from seed to seed.
    """
    groups = []
    for kind in ("pos", "range", "nn"):
        subs = [sub for sub, count in counts.items() if _kind(sub) == kind for _ in range(count)]
        rng.shuffle(subs)
        groups.append([_query(rng, world, sub) for sub in subs])
    return [group for group in groups if group]


def _rounds(rate: float, units: float) -> int:
    return max(2, round(rate * units))


# -- the four generators ------------------------------------------------------


def _update_workload(rng, world, workload, units, move):
    """Ticks of update groups; after each group the read probes that exist
    because every workload must report every end-to-end metric.  In their
    own groups the probes see a quiet cluster and leave the updates alone."""
    rates = workload.rates
    groups = []
    for _tick in range(_rounds(rates["ticks"], units)):
        for part in _tick_parts(workload.objects, rates["parts"]):
            groups.append(_update_group(world, part, lambda i: move(rng, world, i)))
            groups.extend(_query_groups(rng, world, rates["probes"]))
    return groups


def _steady_update(rng, world, workload, units):
    return _update_workload(rng, world, workload, units, _step_in_leaf)


def _handover_burst(rng, world, workload, units):
    mirrored = workload.rates["mirrored"]

    def move(rng, world, i):
        if rng.random() < mirrored:
            _mirror(world, i)
        else:
            _step_near_border(rng, world, i)

    return _update_workload(rng, world, workload, units, move)


def _query_mix(rng, world, workload, units):
    rates = workload.rates
    rounds = _rounds(rates["rounds"], units)
    ticks = max(1, round(rates["ticks"] * units))
    parts = [part for _ in range(ticks) for part in _tick_parts(workload.objects, rates["parts"])]
    # Spread the update groups evenly between the rounds of queries.
    due: dict[int, list[range]] = {}
    for n, part in enumerate(parts):
        due.setdefault(round((n + 1) * rounds / (len(parts) + 1)), []).append(part)
    groups = []
    for r in range(rounds):
        groups.extend(_query_groups(rng, world, rates["round"]))
        for part in due.get(r + 1, ()):
            groups.append(_update_group(world, part, lambda i: _step_in_leaf(rng, world, i)))
    return groups


def _mixed_inproc(rng, world, workload, units):
    """Per round two groups of position queries with update envelopes among
    them — writes beside reads on one store — then the range and the NN
    queries.  (Envelopes shuffled in with 10-25 ms scans wait for whatever
    step of a scan holds the thread: a median that moves by a fifth from
    seed to seed, which is why scans keep to themselves here too.)

    The shares are chosen for what they do to the percentiles.  A position
    query answered while the other client's envelope is being applied takes
    1 ms instead of 0.12 ms; with as many envelopes as queries about half of
    the queries met one, and the median jumped between the two modes from
    run to run.  With twenty queries to an envelope fewer than one in ten
    does: the median is a query on a quiet store, the p95 one that met a
    write.  And the envelopes are spread evenly through the group, never
    left to the shuffle, so that no two of them are ever in flight together
    (an envelope beside another takes twice as long, and how many did moved
    ``update_p95_ms`` by a quarter)."""
    rates = workload.rates
    members = world.by_leaf(range(workload.objects))
    cursors = [0] * len(members)
    groups = []
    envelopes = 0
    for _ in range(_rounds(rates["rounds"], units)):
        for _ in range(rates["mixed_groups"]):
            (mixed,) = _query_groups(rng, world, rates["mixed"])
            updates = []
            for _ in range(rates["mixed"]["update"]):
                # Walk each leaf's members in turn, so no object is in two
                # envelopes of one group.
                k = envelopes % len(members)
                envelopes += 1
                chunk = [members[k][(cursors[k] + j) % len(members[k])] for j in range(ENVELOPE)]
                cursors[k] += ENVELOPE
                for i in chunk:
                    _step_in_leaf(rng, world, i)
                arg = (float(envelopes), chunk, [world.xs[i] for i in chunk], [world.ys[i] for i in chunk])
                updates.append(Op("update", "update", world.leaves[k][0], arg))
            stride = len(mixed) / len(updates)
            for n in reversed(range(len(updates))):  # back to front: no shifting
                mixed.insert(round((n + 0.5) * stride), updates[n])
            groups.append(mixed)
        groups.extend(_query_groups(rng, world, rates["scans"]))
    return groups


_GENERATORS = {
    "steady_update_udp": _steady_update,
    "query_mix_tcp": _query_mix,
    "handover_burst_udp": _handover_burst,
    "mixed_inproc_columnar": _mixed_inproc,
}


@dataclass
class Inputs:
    """Everything one run feeds the program."""

    workload: Workload
    params_hash: str
    object_ids: list[str]
    leaves: list[tuple[str, tuple[float, float, float, float]]]
    #: where every object is registered before the first operation.
    start_xs: list[float]
    start_ys: list[float]
    #: the first ``WARMUP_SHARE`` of the operations, excluded from metrics.
    warmup: list[list[Op]]
    timed: list[list[Op]]


def params_hash(
    workload: Workload, seed: int, seconds: float, scale: str, fraction: float = 1.0
) -> str:
    """First 16 hex digits of sha256 over the canonical JSON of what
    determines the inputs; two results are comparable only if it matches."""
    payload = {
        "workload": workload.name,
        "lane": workload.lane,
        "backend": workload.backend,
        "objects": workload.objects,
        "placement": workload.placement,
        "rates": workload.rates,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "fraction": fraction,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def split_warmup(groups: list[list[Op]], share: float = WARMUP_SHARE):
    """Cut the first ``share`` of the operations off as warm-up (splitting a
    group where the cut falls inside it)."""
    budget = math.ceil(share * sum(len(group) for group in groups))
    warmup: list[list[Op]] = []
    timed: list[list[Op]] = []
    for group in groups:
        if budget >= len(group):
            warmup.append(group)
            budget -= len(group)
        elif budget > 0:
            warmup.append(group[:budget])
            timed.append(group[budget:])
            budget = 0
        else:
            timed.append(group)
    return warmup, timed


def generate(
    name: str, seed: int, seconds: float, scale: str = "full", fraction: float = 1.0
) -> Inputs:
    """Pre-generate one run's inputs.  ``fraction`` shrinks the operation
    count (the traced pass runs a quarter) without touching the population."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    world = World(table2_leaves())
    place = _place_near_borders if workload.placement == "borders" else _place_uniform
    place(rng, world, workload.objects)
    start_xs, start_ys = list(world.xs), list(world.ys)
    units = seconds * SCALES[scale] * fraction
    groups = _GENERATORS[name](rng, world, workload, units)
    warmup, timed = split_warmup(groups)
    return Inputs(
        workload=workload,
        params_hash=params_hash(workload, seed, seconds, scale, fraction),
        object_ids=[f"o{i}" for i in range(workload.objects)],
        leaves=world.leaves,
        start_xs=start_xs,
        start_ys=start_ys,
        warmup=warmup,
        timed=timed,
    )

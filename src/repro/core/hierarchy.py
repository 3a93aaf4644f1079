"""Service-area hierarchies and server configuration (paper Section 4).

A location service covers a *root service area* recursively partitioned
into child areas; one location server is associated with each area.  The
two structural requirements from Section 4 are validated here:

1. a non-leaf service area is the union of its child areas, and
2. sibling service areas do not overlap.

Service areas are axis-aligned rectangles — the shape of the paper's own
testbed (Fig. 8) and of every configuration its evaluation discusses.
Routing uses half-open containment so a point on a shared internal edge
belongs to exactly one sibling.

Builders cover the paper's configurations and the ablation sweeps:
:func:`build_table2_hierarchy` (Fig. 8), :func:`build_fig6_hierarchy`
(the 7-server example of Fig. 6), :func:`build_quad_hierarchy` and
:func:`build_grid_hierarchy` (height / fan-out parameterisation for the
future-work sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, OutOfServiceAreaError
from repro.geo import Point, Rect

#: Relative tolerance for "children tile the parent" area checks.
_AREA_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class ChildRef:
    """One child entry of a configuration record (id + service area)."""

    server_id: str
    area: Rect


def child_for_point(children, point: Point) -> "ChildRef | None":
    """The unique child ref responsible for ``point``.

    Half-open containment resolves shared internal edges; the closed
    fallback catches points on the area's outer maximum boundary.  The
    single source of the boundary rule — protocol routing
    (:meth:`ServerConfig.child_for`) and the migration executor's
    staged routing both resolve through it, so a split can never stage
    a boundary object at a different child than the one that will serve
    it after cutover.
    """
    for child in children:
        if child.area.contains_point_halfopen(point):
            return child
    for child in children:
        if child.area.contains_point(point):
            return child
    return None


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """The paper's configuration record ``c`` (Section 5).

    Attributes:
        server_id: this server's address.
        area: ``c.sa`` — the service area.
        parent: ``c.parent`` — parent server id, ``None`` for the root.
        children: ``c.children`` — empty for leaf servers.
        root_area: the LS-wide root service area.  Static deployment
            knowledge every server has; the range-query entry server uses
            it to compute its covered-area target.
    """

    server_id: str
    area: Rect
    parent: str | None
    children: tuple[ChildRef, ...]
    root_area: Rect

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def contains(self, point: Point) -> bool:
        """Closed containment (boundary points belong to the area)."""
        return self.area.contains_point(point)

    def child_for(self, point: Point) -> ChildRef | None:
        """The unique child responsible for ``point``
        (:func:`child_for_point` over this record's children)."""
        return child_for_point(self.children, point)


class Hierarchy:
    """An immutable server tree: id → :class:`ServerConfig`.

    ``epoch`` is the **topology epoch** (elastic extension): a
    monotonically increasing counter stamped on every derivation
    (:meth:`with_split` / :meth:`with_merge` return ``epoch + 1``).  The
    service carries the epoch in fan-out and protocol-envelope message
    headers so that traffic routed under an older topology snapshot can
    be detected mid-flight and re-routed through the current hierarchy
    instead of requiring a drained loop around every rebalance.  The
    paper's static configuration is epoch 0 forever.
    """

    def __init__(self, configs: dict[str, ServerConfig], epoch: int = 0) -> None:
        self._configs = dict(configs)
        self.epoch = epoch
        roots = [c.server_id for c in self._configs.values() if c.parent is None]
        if len(roots) != 1:
            raise ConfigurationError(f"hierarchy must have exactly one root, found {roots}")
        self.root_id = roots[0]
        self.validate()

    # -- structure ---------------------------------------------------------

    @property
    def configs(self) -> dict[str, ServerConfig]:
        return dict(self._configs)

    def config(self, server_id: str) -> ServerConfig:
        try:
            return self._configs[server_id]
        except KeyError:
            raise ConfigurationError(f"unknown server {server_id!r}") from None

    def server_ids(self) -> list[str]:
        return sorted(self._configs)

    def leaf_ids(self) -> list[str]:
        return sorted(c.server_id for c in self._configs.values() if c.is_leaf)

    def root_area(self) -> Rect:
        return self._configs[self.root_id].area

    def __len__(self) -> int:
        return len(self._configs)

    def height(self) -> int:
        """Number of levels (1 = a single root/leaf server)."""

        def depth_of(server_id: str) -> int:
            config = self._configs[server_id]
            if config.is_leaf:
                return 1
            return 1 + max(depth_of(child.server_id) for child in config.children)

        return depth_of(self.root_id)

    def parent_of(self, server_id: str) -> str | None:
        return self.config(server_id).parent

    def path_to_root(self, server_id: str) -> list[str]:
        """Server ids from ``server_id`` (inclusive) up to the root."""
        path = [server_id]
        current = self.config(server_id)
        while current.parent is not None:
            path.append(current.parent)
            current = self.config(current.parent)
        return path

    def siblings_of(self, server_id: str) -> list[str]:
        """Ids of the other children of this server's parent (may be empty)."""
        parent = self.config(server_id).parent
        if parent is None:
            return []
        return [
            ref.server_id
            for ref in self.config(parent).children
            if ref.server_id != server_id
        ]

    def leaf_for_point(self, point: Point) -> str:
        """Descend from the root to the leaf responsible for ``point``."""
        config = self._configs[self.root_id]
        if not config.contains(point):
            raise OutOfServiceAreaError(f"point {point}")
        while not config.is_leaf:
            child = config.child_for(point)
            if child is None:  # pragma: no cover - prevented by validate()
                raise ConfigurationError(
                    f"{config.server_id} has no child covering {point}"
                )
            config = self._configs[child.server_id]
        return config.server_id

    # -- elastic reconfiguration (repro.cluster) -------------------------------
    #
    # The paper configures the hierarchy once and never changes it.  The
    # elastic cluster layer derives *new* hierarchies from the current one:
    # each derivation returns a fresh, fully re-validated :class:`Hierarchy`
    # (the Section-4 requirements are checked by the constructor), leaving
    # the original untouched so a migration can be planned against a stable
    # snapshot and applied atomically.

    def with_split(
        self, leaf_id: str, children: list[tuple[str, Rect]]
    ) -> "Hierarchy":
        """A new hierarchy where leaf ``leaf_id`` gains the given children.

        The leaf becomes an interior server; every ``(server_id, area)``
        pair becomes a new leaf under it.  The child areas must tile the
        leaf's service area without overlapping (validated).
        """
        config = self.config(leaf_id)
        if not config.is_leaf:
            raise ConfigurationError(f"{leaf_id} is not a leaf; cannot split")
        if len(children) < 2:
            raise ConfigurationError(f"split of {leaf_id} needs >= 2 children")
        for child_id, _ in children:
            if child_id in self._configs:
                raise ConfigurationError(f"server id {child_id!r} already exists")
        refs = tuple(ChildRef(child_id, area) for child_id, area in children)
        configs = dict(self._configs)
        configs[leaf_id] = ServerConfig(
            leaf_id, config.area, config.parent, refs, config.root_area
        )
        for child_id, area in children:
            configs[child_id] = ServerConfig(
                child_id, area, leaf_id, (), config.root_area
            )
        return Hierarchy(configs, epoch=self.epoch + 1)

    def with_split_k(
        self, leaf_id: str, axis: str, cuts, child_ids
    ) -> "Hierarchy":
        """A new hierarchy where the leaf splits along ``cuts`` at once.

        The k-way counterpart of :meth:`with_split`: one
        derivation turns the leaf into ``len(cuts) + 1`` children sliced
        along ``axis`` (``"x"`` or ``"y"``), or into four quadrants for
        ``axis="quad"`` with ``cuts=(x_cut, y_cut)``.  ``child_ids``
        names the children in :func:`split_rects` order.  A single
        epoch bump covers the whole fan-out, so an extreme hotspot
        reaches its steady-state topology in one migration round
        instead of a cascade of binary splits.
        """
        rects = split_rects(self.config(leaf_id).area, axis, cuts)
        if len(child_ids) != len(rects):
            raise ConfigurationError(
                f"split of {leaf_id} needs {len(rects)} child ids, "
                f"got {len(child_ids)}"
            )
        return self.with_split(leaf_id, list(zip(child_ids, rects)))

    def with_merge(self, parent_id: str) -> "Hierarchy":
        """A new hierarchy where ``parent_id``'s children fold back into it.

        Every child must be a leaf; the parent becomes a leaf covering the
        union of their areas (its own area, by requirement 1).
        """
        config = self.config(parent_id)
        if config.is_leaf:
            raise ConfigurationError(f"{parent_id} is a leaf; nothing to merge")
        for ref in config.children:
            if not self.config(ref.server_id).is_leaf:
                raise ConfigurationError(
                    f"cannot merge {parent_id}: child {ref.server_id} is not a leaf"
                )
        configs = dict(self._configs)
        for ref in config.children:
            del configs[ref.server_id]
        configs[parent_id] = ServerConfig(
            parent_id, config.area, config.parent, (), config.root_area
        )
        return Hierarchy(configs, epoch=self.epoch + 1)

    # -- invariants ------------------------------------------------------------

    def validate(self) -> None:
        """Check the two Section-4 requirements plus referential integrity."""
        for config in self._configs.values():
            if config.parent is not None:
                parent = self._configs.get(config.parent)
                if parent is None:
                    raise ConfigurationError(
                        f"{config.server_id} references unknown parent {config.parent}"
                    )
                if all(ref.server_id != config.server_id for ref in parent.children):
                    raise ConfigurationError(
                        f"{config.server_id} is not listed by its parent {config.parent}"
                    )
            for ref in config.children:
                child = self._configs.get(ref.server_id)
                if child is None:
                    raise ConfigurationError(
                        f"{config.server_id} references unknown child {ref.server_id}"
                    )
                if child.parent != config.server_id:
                    raise ConfigurationError(
                        f"child {ref.server_id} does not point back to {config.server_id}"
                    )
                if child.area != ref.area:
                    raise ConfigurationError(
                        f"child record area mismatch for {ref.server_id}"
                    )
                if not config.area.contains_rect(child.area):
                    raise ConfigurationError(
                        f"child area {ref.server_id} escapes parent {config.server_id}"
                    )
            if config.children:
                self._validate_partition(config)

    def _validate_partition(self, config: ServerConfig) -> None:
        # Requirement 2: siblings must not overlap (beyond shared edges).
        children = config.children
        for i, a in enumerate(children):
            for b in children[i + 1 :]:
                if a.area.intersection_area(b.area) > _AREA_TOLERANCE * config.area.area:
                    raise ConfigurationError(
                        f"sibling areas {a.server_id} and {b.server_id} overlap"
                    )
        # Requirement 1: the parent is the union of its children.  With
        # disjoint contained rects, equal total area implies a tiling.
        total = sum(child.area.area for child in children)
        if abs(total - config.area.area) > _AREA_TOLERANCE * max(config.area.area, 1.0):
            raise ConfigurationError(
                f"children of {config.server_id} cover {total}, expected {config.area.area}"
            )


def split_rects(area: Rect, axis: str, cuts) -> list[Rect]:
    """Slice ``area`` into child rects for a k-way or quad split.

    ``axis="x"`` / ``axis="y"`` produce ``len(cuts) + 1`` bands in
    ascending coordinate order; ``axis="quad"`` takes exactly two cuts
    ``(x_cut, y_cut)`` and produces the four quadrants in
    (south-west, south-east, north-west, north-east) order.  Cuts must
    be strictly increasing and strictly inside the area — the resulting
    rects tile ``area`` exactly, which :meth:`Hierarchy.with_split`
    re-validates.
    """
    if axis == "quad":
        if len(cuts) != 2:
            raise ConfigurationError(f"quad split needs (x_cut, y_cut), got {cuts}")
        x_cut, y_cut = cuts
        if not (area.min_x < x_cut < area.max_x and area.min_y < y_cut < area.max_y):
            raise ConfigurationError(f"quad cuts {cuts} escape {area}")
        return [
            Rect(area.min_x, area.min_y, x_cut, y_cut),
            Rect(x_cut, area.min_y, area.max_x, y_cut),
            Rect(area.min_x, y_cut, x_cut, area.max_y),
            Rect(x_cut, y_cut, area.max_x, area.max_y),
        ]
    if axis not in ("x", "y"):
        raise ConfigurationError(f"unknown split axis {axis!r}")
    lo, hi = (area.min_x, area.max_x) if axis == "x" else (area.min_y, area.max_y)
    bounds = [lo, *cuts, hi]
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"cuts {cuts} are not strictly increasing inside [{lo}, {hi}]"
        )
    if axis == "x":
        return [
            Rect(a, area.min_y, b, area.max_y) for a, b in zip(bounds, bounds[1:])
        ]
    return [Rect(area.min_x, a, area.max_x, b) for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Plain-data form (the launcher's process-bootstrap file)
# ---------------------------------------------------------------------------


def _rect_list(rect: Rect) -> list[float]:
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def encode_hierarchy(hierarchy: Hierarchy) -> dict:
    """A :class:`Hierarchy` as plain dicts and lists (JSON-able).

    This is what ``ClusterSpec.to_json`` writes for a node process to
    boot from; between running nodes the configs travel as typed
    message fields (``AdoptHierarchyReq.configs``) instead."""
    return {
        "epoch": hierarchy.epoch,
        "configs": [
            {
                "server_id": config.server_id,
                "area": _rect_list(config.area),
                "parent": config.parent,
                "children": [[c.server_id, _rect_list(c.area)] for c in config.children],
                "root_area": _rect_list(config.root_area),
            }
            for config in hierarchy.configs.values()
        ],
    }


def decode_hierarchy(payload: dict) -> Hierarchy:
    """Inverse of :func:`encode_hierarchy`."""
    configs = [
        ServerConfig(
            entry["server_id"],
            Rect(*entry["area"]),
            entry["parent"],
            tuple(ChildRef(sid, Rect(*area)) for sid, area in entry["children"]),
            Rect(*entry["root_area"]),
        )
        for entry in payload["configs"]
    ]
    return Hierarchy({c.server_id: c for c in configs}, epoch=int(payload["epoch"]))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_grid_hierarchy(
    root_area: Rect,
    levels: list[tuple[int, int]],
    root_id: str = "root",
) -> Hierarchy:
    """A hierarchy where level ``i`` splits every area into a
    ``cols x rows`` grid given by ``levels[i]``.

    ``levels=[]`` produces a single root/leaf server;
    ``levels=[(2, 2)]`` is the paper's Fig. 8 testbed shape.
    """
    configs: dict[str, ServerConfig] = {}

    def build(server_id: str, area: Rect, parent: str | None, depth: int) -> None:
        if depth < len(levels):
            cols, rows = levels[depth]
            cells = area.grid(cols, rows)
            children = tuple(
                ChildRef(f"{server_id}.{i}", cell) for i, cell in enumerate(cells)
            )
        else:
            children = ()
        configs[server_id] = ServerConfig(server_id, area, parent, children, root_area)
        for ref in children:
            build(ref.server_id, ref.area, server_id, depth + 1)

    build(root_id, root_area, None, 0)
    return Hierarchy(configs)


def build_quad_hierarchy(root_area: Rect, depth: int, root_id: str = "root") -> Hierarchy:
    """A regular quadtree of service areas with ``4**depth`` leaves."""
    if depth < 0:
        raise ConfigurationError(f"depth must be non-negative, got {depth}")
    return build_grid_hierarchy(root_area, [(2, 2)] * depth, root_id=root_id)


def build_table2_hierarchy(
    side_m: float = 1500.0, root_id: str = "root"
) -> Hierarchy:
    """The paper's distributed testbed (Fig. 8): one root, four quadrant
    leaves over a 1.5 km x 1.5 km service area."""
    return build_quad_hierarchy(Rect(0, 0, side_m, side_m), depth=1, root_id=root_id)


def build_fig6_hierarchy(side_m: float = 1000.0) -> Hierarchy:
    """The 3-level, 7-server example hierarchy of Fig. 6.

    s1 is the root with halves s2 (west) and s3 (east); each half splits
    into two quarters: s4, s5 under s2 and s6, s7 under s3.
    """
    root = Rect(0, 0, side_m, side_m)
    west = Rect(0, 0, side_m / 2, side_m)
    east = Rect(side_m / 2, 0, side_m, side_m)
    areas = {
        "s1": root,
        "s2": west,
        "s3": east,
        "s4": Rect(0, 0, side_m / 2, side_m / 2),
        "s5": Rect(0, side_m / 2, side_m / 2, side_m),
        "s6": Rect(side_m / 2, 0, side_m, side_m / 2),
        "s7": Rect(side_m / 2, side_m / 2, side_m, side_m),
    }
    tree = {
        "s1": (None, ("s2", "s3")),
        "s2": ("s1", ("s4", "s5")),
        "s3": ("s1", ("s6", "s7")),
        "s4": ("s2", ()),
        "s5": ("s2", ()),
        "s6": ("s3", ()),
        "s7": ("s3", ()),
    }
    configs = {}
    for server_id, (parent, child_ids) in tree.items():
        children = tuple(ChildRef(cid, areas[cid]) for cid in child_ids)
        configs[server_id] = ServerConfig(server_id, areas[server_id], parent, children, root)
    return Hierarchy(configs)

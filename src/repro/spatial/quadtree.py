"""Point Quadtree (Samet [17]).

This is the index the paper's prototype uses for the sighting DB ("For
the spatial index we used a Point Quadtree implementation [17], which we
found to be very well suited for our purpose", Section 7.1).

Every stored point becomes a node that splits the plane into four
quadrants.  Insertion descends comparing coordinates; deletion detaches
the node's subtree and re-inserts the orphaned entries (the classic
strategy — exact point-quadtree deletion is notoriously intricate and
re-insertion keeps expected cost at the subtree size, which for random
trees averages O(log n)).

The split coordinates are **decoupled from the data point**: a node's
split lines are fixed at insertion time (at the then-current position)
and never move, while the data point may be rewritten in place by
:meth:`update` as long as it stays inside the node's implicit region
(the same quadrant at every ancestor).  Queries prune on the immutable
split lines and report the data points, so in-place moves — the dominant
operation of the paper's workload — cost one O(depth) descent with no
restructuring, for internal and leaf nodes alike.  Invariant: a node's
data point and its split point both lie inside its implicit region.

All traversals are iterative with explicit stacks so adversarial insert
orders cannot overflow the Python recursion limit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Iterator

from repro.geo import Point, Rect
from repro.spatial.base import NeighborHit, SpatialIndex, keep_nearest

_INF = float("inf")

# Quadrant encoding: index = qy * 2 + qx where qx = 0 if x < split_x else 1.
_SW, _SE, _NW, _NE = 0, 1, 2, 3

#: Orphan sets at least this large are re-inserted in shuffled (bulk
#: rebuild) order.  Detached subtrees preserve their insertion order, and
#: re-inserting a large subtree in DFS order can rebuild the same
#: degenerate chain it came from; shuffling restores the expected
#: O(log n) depth, same as :meth:`PointQuadtree.bulk_load`.
_BULK_REINSERT_THRESHOLD = 16


class _Node:
    __slots__ = ("object_id", "point", "split_x", "split_y", "children")

    def __init__(self, object_id: str, point: Point) -> None:
        self.object_id = object_id
        self.point = point
        # Split lines freeze at the insertion position; in-place moves
        # rewrite ``point`` without touching them.
        self.split_x = point.x
        self.split_y = point.y
        self.children: list[_Node | None] = [None, None, None, None]

    def quadrant_of(self, point: Point) -> int:
        qx = 0 if point.x < self.split_x else 1
        qy = 0 if point.y < self.split_y else 1
        return qy * 2 + qx


class PointQuadtree(SpatialIndex):
    """Main-memory point quadtree keyed by object id."""

    __slots__ = ("_root", "_points", "_rng")

    def __init__(self, shuffle_seed: int | None = 0) -> None:
        """
        Args:
            shuffle_seed: seed for the bulk-load shuffle that keeps the
                expected depth logarithmic; ``None`` uses nondeterministic
                shuffling.
        """
        self._root: _Node | None = None
        self._points: dict[str, Point] = {}
        self._rng = random.Random(shuffle_seed)

    # -- mutation -----------------------------------------------------------

    def insert(self, object_id: str, point: Point) -> None:
        if object_id in self._points:
            raise KeyError(f"duplicate insert for {object_id!r}")
        self._points[object_id] = point
        self._insert_node(_Node(object_id, point))

    def _insert_node(self, node: _Node) -> None:
        if self._root is None:
            self._root = node
            return
        current = self._root
        while True:
            quadrant = current.quadrant_of(node.point)
            child = current.children[quadrant]
            if child is None:
                current.children[quadrant] = node
                return
            current = child

    def update(self, object_id: str, point: Point) -> None:
        """Move an entry, in place when it stays inside its own region.

        A node owns the region carved out by its ancestors' split lines;
        while the new point falls into the same quadrant at every
        ancestor, rewriting the data point cannot affect any other
        entry's placement (split lines never move).  Only moves that
        escape the region pay the delete + reinsert cost.
        """
        if not self._update_in_place(object_id, point):
            self.remove(object_id)
            self.insert(object_id, point)

    def _update_in_place(self, object_id: str, point: Point) -> bool:
        """Try the in-place fast path; ``KeyError`` when the id is absent."""
        old = self._points.get(object_id)
        if old is None:
            raise KeyError(object_id)
        current = self._root
        x, y = point.x, point.y
        while current is not None:
            if current.object_id == object_id:
                self._points[object_id] = point
                current.point = point
                return True
            qx = 0 if old.x < current.split_x else 1
            qy = 0 if old.y < current.split_y else 1
            if (0 if x < current.split_x else 1) != qx or (
                0 if y < current.split_y else 1
            ) != qy:
                return False
            current = current.children[qy * 2 + qx]
        raise KeyError(object_id)  # pragma: no cover - guarded by _points

    def update_many(self, moves) -> None:
        """Batched moves: in-place fast paths first, one structural pass.

        Every move tries the in-place path; the few entries that escape
        their region are collected and re-homed in a single
        delete-then-reinsert pass at the end, so each subtree detach and
        orphan re-insertion happens at most once per batch.
        """
        deferred: dict[str, Point] = {}
        for object_id, point in moves:
            if self._update_in_place(object_id, point):
                deferred.pop(object_id, None)
            else:
                deferred[object_id] = point
        if not deferred:
            return
        for object_id in deferred:
            self.remove(object_id)
        batch = list(deferred.items())
        self._rng.shuffle(batch)
        for object_id, point in batch:
            self.insert(object_id, point)

    def remove(self, object_id: str) -> Point:
        point = self._points.pop(object_id)
        parent, node = self._find_node(object_id, point)
        orphans = [
            entry
            for entry in self._subtree_entries(node)
            if entry.object_id != object_id
        ]
        if parent is None:
            self._root = None
        else:
            parent.children[parent.quadrant_of(point)] = None
        # Deferred batch reinsertion: large orphan sets are bulk-rebuilt
        # in shuffled order instead of replayed one by one in DFS order.
        if len(orphans) >= _BULK_REINSERT_THRESHOLD:
            self._rng.shuffle(orphans)
        for orphan in orphans:
            orphan.children = [None, None, None, None]
            # Re-inserted nodes split at their current data position, as a
            # fresh insert would (stale split lines could fall outside the
            # orphan's new region and break nearest's region bounds).
            orphan.split_x = orphan.point.x
            orphan.split_y = orphan.point.y
            self._insert_node(orphan)
        return point

    def _find_node(self, object_id: str, point: Point) -> tuple[_Node | None, _Node]:
        """Locate the node holding ``object_id`` and its parent.

        Several stored points may share coordinates, so the descent keeps
        walking through equal-coordinate nodes until the ids match.
        """
        parent: _Node | None = None
        current = self._root
        while current is not None:
            if current.object_id == object_id:
                return parent, current
            parent = current
            current = current.children[current.quadrant_of(point)]
        raise KeyError(object_id)  # pragma: no cover - guarded by _points

    def clear(self) -> None:
        self._root = None
        self._points.clear()

    def get(self, object_id: str) -> Point | None:
        return self._points.get(object_id)

    def bulk_load(self, entries) -> None:
        """Shuffled insertion: expected O(log n) depth for any input order."""
        batch = list(entries)
        self._rng.shuffle(batch)
        for object_id, point in batch:
            self.insert(object_id, point)

    # -- queries ------------------------------------------------------------

    def query_rect(self, rect: Rect) -> Iterator[tuple[str, Point]]:
        return _scan(self._root, rect) if self._root is not None else iter(())

    def query_rect_many(self, rects) -> list[list[tuple[str, Point]]]:
        """Answer many rect queries in one traversal.

        The stack carries, per node, the indices of the rects whose
        search can still reach that subtree; shared tree prefixes are
        visited once for the whole batch instead of once per rect, and a
        subtree only one rect still reaches gets the plain
        :meth:`query_rect` walk — the per-node bookkeeping below is for
        telling rects apart.
        """
        rect_list = list(rects)
        results: list[list[tuple[str, Point]]] = [[] for _ in rect_list]
        if self._root is None or not rect_list:
            return results
        stack: list[tuple[_Node, list[int]]] = [
            (self._root, list(range(len(rect_list))))
        ]
        while stack:
            node, active = stack.pop()
            if len(active) == 1:
                results[active[0]].extend(_scan(node, rect_list[active[0]]))
                continue
            p = node.point
            px, py = node.split_x, node.split_y
            children = node.children
            sw: list[int] = []
            se: list[int] = []
            nw: list[int] = []
            ne: list[int] = []
            for i in active:
                rect = rect_list[i]
                if rect.contains_point(p):
                    results[i].append((node.object_id, p))
                west = rect.min_x < px
                east = rect.max_x >= px
                south = rect.min_y < py
                north = rect.max_y >= py
                if south:
                    if west:
                        sw.append(i)
                    if east:
                        se.append(i)
                if north:
                    if west:
                        nw.append(i)
                    if east:
                        ne.append(i)
            if sw and children[_SW] is not None:
                stack.append((children[_SW], sw))
            if se and children[_SE] is not None:
                stack.append((children[_SE], se))
            if nw and children[_NW] is not None:
                stack.append((children[_NW], nw))
            if ne and children[_NE] is not None:
                stack.append((children[_NE], ne))
        return results

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = _INF
    ) -> list[NeighborHit]:
        if k < 1 or self._root is None:
            return []
        counter = itertools.count()
        # Best-first search over (node, implicit region) pairs ordered by
        # the minimal possible distance from the probe to the region.
        frontier: list[tuple[float, int, _Node, tuple[float, float, float, float]]] = [
            (0.0, next(counter), self._root, (-_INF, -_INF, _INF, _INF))
        ]
        best: list[NeighborHit] = []
        while frontier:
            region_dist, _, node, region = heapq.heappop(frontier)
            if len(best) == k and region_dist > best[-1].distance:
                break
            d = point.distance_to(node.point)
            if d <= max_distance:
                keep_nearest(best, NeighborHit(node.object_id, node.point, d), k)
            min_x, min_y, max_x, max_y = region
            px, py = node.split_x, node.split_y
            subregions = (
                (min_x, min_y, px, py),  # SW
                (px, min_y, max_x, py),  # SE
                (min_x, py, px, max_y),  # NW
                (px, py, max_x, max_y),  # NE
            )
            for child, sub in zip(node.children, subregions):
                if child is None:
                    continue
                child_dist = _region_distance(point, sub)
                if child_dist > max_distance:
                    continue
                if len(best) == k and child_dist > best[-1].distance:
                    continue
                heapq.heappush(frontier, (child_dist, next(counter), child, sub))
        return best

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def items(self) -> Iterator[tuple[str, Point]]:
        return iter(self._points.items())

    def depth(self) -> int:
        """The height of the tree (0 for an empty tree); for diagnostics."""
        if self._root is None:
            return 0
        max_depth = 0
        stack = [(self._root, 1)]
        while stack:
            node, level = stack.pop()
            max_depth = max(max_depth, level)
            for child in node.children:
                if child is not None:
                    stack.append((child, level + 1))
        return max_depth

    def _subtree_entries(self, root: _Node) -> list[_Node]:
        nodes = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for child in node.children:
                if child is not None:
                    stack.append(child)
        return nodes


def _scan(root: _Node, rect: Rect) -> Iterator[tuple[str, Point]]:
    """Every ``(object id, point)`` inside ``rect`` in the subtree at ``root``."""
    stack = [root]
    while stack:
        node = stack.pop()
        p = node.point
        if rect.contains_point(p):
            yield node.object_id, p
        # A quadrant can only hold matches if the rect reaches past the
        # node's split lines in that direction.
        west = rect.min_x < node.split_x
        east = rect.max_x >= node.split_x
        south = rect.min_y < node.split_y
        north = rect.max_y >= node.split_y
        children = node.children
        if south:
            if west and children[_SW] is not None:
                stack.append(children[_SW])
            if east and children[_SE] is not None:
                stack.append(children[_SE])
        if north:
            if west and children[_NW] is not None:
                stack.append(children[_NW])
            if east and children[_NE] is not None:
                stack.append(children[_NE])


def _region_distance(point: Point, region: tuple[float, float, float, float]) -> float:
    min_x, min_y, max_x, max_y = region
    dx = max(min_x - point.x, 0.0, point.x - max_x)
    dy = max(min_y - point.y, 0.0, point.y - max_y)
    if dx == 0.0 and dy == 0.0:
        return 0.0
    if math.isinf(dx) or math.isinf(dy):  # pragma: no cover - defensive
        return _INF
    return math.hypot(dx, dy)

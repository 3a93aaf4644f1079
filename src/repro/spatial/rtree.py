"""R-tree with quadratic split (Guttman [6]).

Section 5 names the R-tree as the alternative spatial index for the
sighting DB.  This implementation stores point entries in the leaves and
follows the original paper's algorithms: ChooseLeaf by least area
enlargement, quadratic node split, CondenseTree with re-insertion on
deletion, and best-first nearest-neighbor search over node MBRs.

For the update-dominant moving-object workload it adds a **bottom-up
update path**: a hash from object id to its owning leaf node (the
secondary-index idea of frequent-update R-tree variants) turns updates
and removals into direct leaf accesses instead of root-down MBR
searches, and :meth:`RTree.update` rewrites the leaf entry in place when
the new point stays inside the leaf MBR.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

from repro.geo import Point, Rect
from repro.spatial.base import NeighborHit, SpatialIndex, keep_nearest

_INF = float("inf")


def _point_rect(p: Point) -> Rect:
    return Rect(p.x, p.y, p.x, p.y)


class _Node:
    __slots__ = ("leaf", "entries", "children", "mbr", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        #: leaf payload: list of (object_id, Point)
        self.entries: list[tuple[str, Point]] = []
        #: internal payload: child nodes
        self.children: list["_Node"] = []
        self.mbr: Rect | None = None
        self.parent: "_Node | None" = None

    def recompute_mbr(self) -> None:
        rects: list[Rect] = []
        if self.leaf:
            rects = [_point_rect(p) for _, p in self.entries]
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
        if not rects:
            self.mbr = None
            return
        mbr = rects[0]
        for r in rects[1:]:
            mbr = mbr.union_bounds(r)
        self.mbr = mbr

    def __len__(self) -> int:
        return len(self.entries) if self.leaf else len(self.children)


class RTree(SpatialIndex):
    """Guttman R-tree over point entries.

    Args:
        max_entries: node capacity M (>= 4).
        min_entries: minimum fill m; defaults to ``max_entries // 2``.
    """

    __slots__ = ("_root", "_points", "_leaf_of", "_max", "_min")

    def __init__(self, max_entries: int = 8, min_entries: int | None = None) -> None:
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self._max = max_entries
        self._min = min_entries if min_entries is not None else max_entries // 2
        if not 1 <= self._min <= self._max // 2:
            raise ValueError(f"min_entries must be in [1, {self._max // 2}], got {self._min}")
        self._root = _Node(leaf=True)
        self._points: dict[str, Point] = {}
        #: object id → owning leaf node (bottom-up update path); kept in
        #: sync by insert, split, removal and CondenseTree re-insertion.
        self._leaf_of: dict[str, _Node] = {}

    # -- mutation -----------------------------------------------------------

    def insert(self, object_id: str, point: Point) -> None:
        if object_id in self._points:
            raise KeyError(f"duplicate insert for {object_id!r}")
        self._points[object_id] = point
        self._insert_entry(object_id, point)

    def _insert_entry(self, object_id: str, point: Point) -> None:
        leaf = self._choose_leaf(self._root, point)
        leaf.entries.append((object_id, point))
        self._leaf_of[object_id] = leaf
        leaf.mbr = (
            _point_rect(point) if leaf.mbr is None else leaf.mbr.union_bounds(_point_rect(point))
        )
        self._split_and_adjust(leaf)

    def _choose_leaf(self, node: _Node, point: Point) -> _Node:
        while not node.leaf:
            node = min(
                node.children,
                key=lambda child: (
                    _enlargement(child.mbr, point),
                    child.mbr.area if child.mbr is not None else 0.0,
                ),
            )
        return node

    def _split_and_adjust(self, node: _Node) -> None:
        """Walk to the root, splitting overflowing nodes and fixing MBRs."""
        while node is not None:
            if len(node) > self._max:
                sibling = self._quadratic_split(node)
                parent = node.parent
                if parent is None:
                    new_root = _Node(leaf=False)
                    for child in (node, sibling):
                        child.parent = new_root
                        new_root.children.append(child)
                    new_root.recompute_mbr()
                    self._root = new_root
                    return
                sibling.parent = parent
                parent.children.append(sibling)
                parent.recompute_mbr()
                node = parent
            else:
                node.recompute_mbr()
                node = node.parent

    def _quadratic_split(self, node: _Node) -> _Node:
        """Split an overflowing node; returns the new sibling."""
        if node.leaf:
            items = node.entries
            rect_of = lambda item: _point_rect(item[1])
        else:
            items = node.children
            rect_of = lambda item: item.mbr

        seed_a, seed_b = _pick_seeds(items, rect_of)
        group_a = [items[seed_a]]
        group_b = [items[seed_b]]
        mbr_a = rect_of(items[seed_a])
        mbr_b = rect_of(items[seed_b])
        remaining = [item for i, item in enumerate(items) if i not in (seed_a, seed_b)]

        while remaining:
            # Force-assign when one group must take all remaining items to
            # reach minimum fill.
            if len(group_a) + len(remaining) == self._min:
                group_a.extend(remaining)
                for item in remaining:
                    mbr_a = mbr_a.union_bounds(rect_of(item))
                remaining = []
                break
            if len(group_b) + len(remaining) == self._min:
                group_b.extend(remaining)
                for item in remaining:
                    mbr_b = mbr_b.union_bounds(rect_of(item))
                remaining = []
                break
            idx, prefer_a = _pick_next(remaining, rect_of, mbr_a, mbr_b)
            item = remaining.pop(idx)
            if prefer_a:
                group_a.append(item)
                mbr_a = mbr_a.union_bounds(rect_of(item))
            else:
                group_b.append(item)
                mbr_b = mbr_b.union_bounds(rect_of(item))

        sibling = _Node(leaf=node.leaf)
        if node.leaf:
            node.entries = group_a
            sibling.entries = group_b
            leaf_of = self._leaf_of
            for oid, _ in group_b:
                leaf_of[oid] = sibling
        else:
            node.children = group_a
            sibling.children = group_b
            for child in group_b:
                child.parent = sibling
        node.mbr = mbr_a
        sibling.mbr = mbr_b
        return sibling

    def update(self, object_id: str, point: Point) -> None:
        """Move an entry in place while it stays near its leaf.

        The leaf comes straight from the bottom-up hash (no root-down
        search).  Inside the leaf MBR the entry tuple is rewritten with
        no other work; outside it but still inside the *parent* MBR the
        leaf MBR is extended around the new point (the LUR-tree move) —
        the extension stays within the parent, so no ancestor MBR needs
        adjusting.  MBRs are never shrunk, so they may over-cover after
        many moves but remain valid supersets (queries and
        nearest-neighbor bounds stay admissible).  Only moves leaving
        the parent MBR pay the full CondenseTree delete + reinsert.
        """
        leaf = self._leaf_of.get(object_id)
        if leaf is None:
            raise KeyError(object_id)
        if self._move_within_leaf(leaf, object_id, point):
            return
        self.remove(object_id)
        self.insert(object_id, point)

    def _move_within_leaf(self, leaf: _Node, object_id: str, point: Point) -> bool:
        """In-place / extend-MBR fast paths; ``False`` when neither applies."""
        mbr = leaf.mbr
        if mbr is None:  # pragma: no cover - a mapped leaf holds entries
            return False
        x, y = point.x, point.y
        inside = mbr.min_x <= x <= mbr.max_x and mbr.min_y <= y <= mbr.max_y
        if not inside:
            parent = leaf.parent
            if parent is not None:
                pm = parent.mbr
                if pm is None or not (
                    pm.min_x <= x <= pm.max_x and pm.min_y <= y <= pm.max_y
                ):
                    return False
            leaf.mbr = Rect(
                min(mbr.min_x, x),
                min(mbr.min_y, y),
                max(mbr.max_x, x),
                max(mbr.max_y, y),
            )
        entries = leaf.entries
        for i, entry in enumerate(entries):
            if entry[0] == object_id:
                entries[i] = (object_id, point)
                break
        self._points[object_id] = point
        return True

    def update_many(self, moves) -> None:
        """Batched moves: in-place fast paths first, one structural pass.

        Entries that escape their parent MBR are collected and re-homed
        in a single delete-then-reinsert pass after all in-place moves,
        so CondenseTree runs at most once per escaping entry per batch.
        """
        leaf_of = self._leaf_of
        deferred: dict[str, Point] = {}
        for object_id, point in moves:
            leaf = leaf_of.get(object_id)
            if leaf is None:
                raise KeyError(object_id)
            if self._move_within_leaf(leaf, object_id, point):
                deferred.pop(object_id, None)
            else:
                deferred[object_id] = point
        for object_id, point in deferred.items():
            self.remove(object_id)
            self.insert(object_id, point)

    def remove(self, object_id: str) -> Point:
        point = self._points.pop(object_id)
        leaf = self._leaf_of.pop(object_id)
        leaf.entries = [(oid, p) for oid, p in leaf.entries if oid != object_id]
        self._condense(leaf)
        # Shrink the root when it has a single internal child.
        while not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        return point

    def _condense(self, node: _Node) -> None:
        """Guttman's CondenseTree: drop under-full nodes, re-insert orphans."""
        orphans: list[tuple[str, Point]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node) < self._min:
                parent.children.remove(node)
                orphans.extend(self._collect_entries(node))
            else:
                node.recompute_mbr()
            parent.recompute_mbr()
            node = parent
        node.recompute_mbr()
        for object_id, point in orphans:
            self._insert_entry(object_id, point)

    def _collect_entries(self, node: _Node) -> list[tuple[str, Point]]:
        found: list[tuple[str, Point]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.leaf:
                found.extend(current.entries)
            else:
                stack.extend(current.children)
        return found

    def clear(self) -> None:
        self._root = _Node(leaf=True)
        self._points.clear()
        self._leaf_of.clear()

    def get(self, object_id: str) -> Point | None:
        return self._points.get(object_id)

    def compact(self) -> None:
        """Shrink every node MBR back to the tight bound of its contents.

        The in-place move fast paths only ever *grow* leaf MBRs (see
        :meth:`update`), so a long update stream leaves nodes over-
        covering and range queries visiting leaves they could have
        pruned.  One bottom-up pass — leaves first, then each level of
        parents — restores minimal MBRs.  O(n) and result-neutral; the
        migration bulk-move path runs it after every object transfer,
        and callers with very long-lived stores can invoke it
        periodically.
        """
        levels: list[list[_Node]] = [[self._root]]
        while not all(node.leaf for node in levels[-1]):
            levels.append(
                [child for node in levels[-1] if not node.leaf for child in node.children]
            )
        for level in reversed(levels):
            for node in level:
                node.recompute_mbr()

    # -- queries ------------------------------------------------------------

    def query_rect(self, rect: Rect) -> Iterator[tuple[str, Point]]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(rect):
                continue
            if node.leaf:
                for object_id, point in node.entries:
                    if rect.contains_point(point):
                        yield object_id, point
            else:
                stack.extend(node.children)

    def query_rect_many(self, rects) -> list[list[tuple[str, Point]]]:
        """Answer many rect queries in one traversal.

        Each stack frame carries the indices of the rects intersecting
        the node's MBR, so shared upper levels of the tree are visited
        once for the whole batch.
        """
        rect_list = list(rects)
        results: list[list[tuple[str, Point]]] = [[] for _ in rect_list]
        if not rect_list:
            return results
        stack: list[tuple[_Node, list[int]]] = [
            (self._root, list(range(len(rect_list))))
        ]
        while stack:
            node, active = stack.pop()
            mbr = node.mbr
            if mbr is None:
                continue
            live = [i for i in active if rect_list[i].intersects(mbr)]
            if not live:
                continue
            if node.leaf:
                for object_id, point in node.entries:
                    for i in live:
                        if rect_list[i].contains_point(point):
                            results[i].append((object_id, point))
            else:
                for child in node.children:
                    stack.append((child, live))
        return results

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = _INF
    ) -> list[NeighborHit]:
        if k < 1 or not self._points:
            return []
        counter = itertools.count()
        frontier: list[tuple[float, int, _Node]] = [(0.0, next(counter), self._root)]
        best: list[NeighborHit] = []
        while frontier:
            node_dist, _, node = heapq.heappop(frontier)
            if len(best) == k and node_dist > best[-1].distance:
                break
            if node.leaf:
                for object_id, p in node.entries:
                    d = point.distance_to(p)
                    if d > max_distance:
                        continue
                    keep_nearest(best, NeighborHit(object_id, p, d), k)
            else:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    d = child.mbr.distance_to_point(point)
                    if d > max_distance:
                        continue
                    if len(best) == k and d > best[-1].distance:
                        continue
                    heapq.heappush(frontier, (d, next(counter), child))
        return best

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def items(self) -> Iterator[tuple[str, Point]]:
        return iter(self._points.items())

    def depth(self) -> int:
        """Tree height (1 for a root-only tree); for diagnostics."""
        depth = 1
        node = self._root
        while not node.leaf:
            depth += 1
            node = node.children[0]
        return depth


def _enlargement(mbr: Rect | None, point: Point) -> float:
    if mbr is None:
        return 0.0
    grown = mbr.union_bounds(_point_rect(point))
    return grown.area - mbr.area


def _pick_seeds(items, rect_of) -> tuple[int, int]:
    """The pair wasting the most area when grouped together."""
    worst = (-1.0, 0, 1)
    for i in range(len(items)):
        rect_i = rect_of(items[i])
        for j in range(i + 1, len(items)):
            rect_j = rect_of(items[j])
            waste = (
                rect_i.union_bounds(rect_j).area - rect_i.area - rect_j.area
            )
            if waste > worst[0]:
                worst = (waste, i, j)
    return worst[1], worst[2]


def _pick_next(remaining, rect_of, mbr_a: Rect, mbr_b: Rect) -> tuple[int, bool]:
    """The item with the strongest preference for one group."""
    best_idx = 0
    best_diff = -1.0
    best_prefers_a = True
    for idx, item in enumerate(remaining):
        rect = rect_of(item)
        grow_a = mbr_a.union_bounds(rect).area - mbr_a.area
        grow_b = mbr_b.union_bounds(rect).area - mbr_b.area
        diff = abs(grow_a - grow_b)
        if diff > best_diff:
            best_diff = diff
            best_idx = idx
            best_prefers_a = grow_a < grow_b or (grow_a == grow_b and mbr_a.area <= mbr_b.area)
    return best_idx, best_prefers_a

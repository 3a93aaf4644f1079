"""Common interface for the main-memory spatial indexes.

Section 5 of the paper: "A spatial index over the position information in
the sighting records (e.g., a Quadtree [17] or a R-Tree [6]) is used to
efficiently retrieve the results for range or nearest neighbor queries."

All indexes store ``(object_id, Point)`` entries keyed by object id so the
sighting DB can update an object's position in place.  Implementations
must support:

* :meth:`insert` / :meth:`remove` / :meth:`update`
* :meth:`query_rect` — every entry whose point lies in a closed rect
  (the *candidate* step of range queries; exact overlap filtering happens
  in the query semantics layer),
* :meth:`nearest` — the k entries nearest to a probe point.

``NeighborHit`` carries the distance so callers need not recompute it.

Batch API and fast-path invariants
----------------------------------

Position updates dominate the paper's workload (Table 1: updates
outnumber queries by an order of magnitude), so every index overrides
:meth:`update` with an **in-place fast path** for small displacements and
the base class exposes two batch entry points:

* :meth:`update_many` — apply many ``(id, point)`` moves.  The quadtree
  takes the in-place path per move and defers the structural
  remove+reinsert of the few entries that escape their node to one
  final pass.
* :meth:`query_rect_many` — answer many rect queries in one call; the
  quadtree traverses the structure once, carrying the set of still-live
  rects down each branch.

Per-index fast-path invariants (each equivalent to remove+insert for
every query):

* ``PointQuadtree.update`` rewrites the node's point in place when the
  node is childless and the new point falls into the same quadrant at
  every ancestor (i.e. stays inside the node's implicit region);
  otherwise it falls back to delete + reinsert.
* ``LinearScanIndex.update`` is a plain dict store.
* ``ColumnarIndex.update`` is two column stores at the object's slot.

Whatever path is taken, ``items()``/``query_rect``/``nearest`` must
return results point-for-point identical to the remove+insert baseline
(the property suite in ``tests/spatial/test_batch_ops.py`` enforces
this for every registered implementation).
"""

from __future__ import annotations

import bisect
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.geo import Point, Rect


@dataclass(frozen=True, slots=True)
class NeighborHit:
    """One result of a nearest-neighbor lookup."""

    object_id: str
    point: Point
    distance: float


_hit_order = operator.attrgetter("distance", "object_id")


def keep_nearest(best: list[NeighborHit], hit: NeighborHit, k: int) -> None:
    """Offer ``hit`` to ``best``, the ``k`` nearest hits so far in
    (distance, id) order, with one binary insertion rather than a
    re-sort, so a large ``k`` costs O(log k) key calls per hit."""
    if len(best) == k:
        if _hit_order(hit) >= _hit_order(best[-1]):
            return
        best.pop()
    bisect.insort(best, hit, key=_hit_order)


class SpatialIndex(ABC):
    """Abstract base class for point indexes keyed by object id."""

    @abstractmethod
    def insert(self, object_id: str, point: Point) -> None:
        """Add an entry.  Raises ``KeyError`` if the id is already present."""

    @abstractmethod
    def remove(self, object_id: str) -> Point:
        """Remove an entry and return its point.  ``KeyError`` if absent."""

    @abstractmethod
    def get(self, object_id: str) -> Point | None:
        """The stored point for an id, or ``None``."""

    @abstractmethod
    def query_rect(self, rect: Rect) -> Iterator[tuple[str, Point]]:
        """All entries whose point lies inside the closed rectangle."""

    @abstractmethod
    def nearest(
        self, point: Point, k: int = 1, max_distance: float = float("inf")
    ) -> list[NeighborHit]:
        """The ``k`` entries nearest to ``point`` within ``max_distance``.

        Results are sorted by ascending distance; fewer than ``k`` hits are
        returned when the index holds fewer qualifying entries.
        """

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry; the index keeps its configuration."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def items(self) -> Iterator[tuple[str, Point]]:
        """All entries in unspecified order."""

    # -- conveniences shared by all implementations ------------------------

    def update(self, object_id: str, point: Point) -> None:
        """Move an existing entry to a new position."""
        self.remove(object_id)
        self.insert(object_id, point)

    def update_many(self, moves: Iterable[tuple[str, Point]]) -> None:
        """Apply many ``(object_id, point)`` moves.

        Equivalent to calling :meth:`update` per pair; implementations
        override to batch structural work.  When the same id occurs more
        than once, the last move wins.  Raises ``KeyError`` on the first
        unknown id; like the sequential path, moves before the failing
        one may already be applied (tree indexes may still be holding
        some as deferred structural work, which is then dropped).
        """
        for object_id, point in moves:
            self.update(object_id, point)

    def upsert(self, object_id: str, point: Point) -> None:
        """Insert, or update when the id already exists."""
        try:
            self.update(object_id, point)
        except KeyError:
            self.insert(object_id, point)

    def __contains__(self, object_id: str) -> bool:
        return self.get(object_id) is not None

    def bulk_load(self, entries: Iterable[tuple[str, Point]]) -> None:
        """Insert many entries; implementations may override to optimise."""
        for object_id, point in entries:
            self.insert(object_id, point)

    def _validated_batch(self, entries: Iterable[tuple[str, Point]]) -> dict[str, Point]:
        """Materialize a bulk-load batch after one upfront duplicate check.

        Shared by the dict-backed bulk loads: rejects ids duplicated
        within the batch and ids already present, so the caller can fill
        its structures without per-item membership tests.
        """
        batch = list(entries)
        fresh = dict(batch)
        if len(fresh) != len(batch):
            seen: set[str] = set()
            for object_id, _ in batch:
                if object_id in seen:
                    raise KeyError(f"duplicate insert for {object_id!r}")
                seen.add(object_id)
        for object_id in fresh:
            if object_id in self:
                raise KeyError(f"duplicate insert for {object_id!r}")
        return fresh

    def compact(self) -> None:
        """Re-tighten internal bounds loosened by long in-place-move streams.

        A no-op for indexes whose structure never over-covers (linear,
        quadtree — their pruning bounds are exact by construction).  The
        columnar index overrides this to re-pack live slots after
        deregistration churn.  Never changes query results — only the
        work needed to compute them.
        """

    def query_rect_many(self, rects: Iterable[Rect]) -> list[list[tuple[str, Point]]]:
        """Answer many rect queries; result ``i`` matches ``rects[i]``.

        Equivalent to ``[list(self.query_rect(r)) for r in rects]``; tree
        indexes override this with a single shared traversal.
        """
        return [list(self.query_rect(rect)) for rect in rects]

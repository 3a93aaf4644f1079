"""Brute-force baseline index.

A plain dictionary scan.  It is the correctness oracle for the real
indexes (property tests compare every index against it) and the
lower-anchor of the spatial-index ablation bench (Ablation C).
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.geo import Point, Rect
from repro.spatial.base import NeighborHit, SpatialIndex


class LinearScanIndex(SpatialIndex):
    """O(n) scans over a dict; O(1) insert/remove/update."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[str, Point] = {}

    def insert(self, object_id: str, point: Point) -> None:
        if object_id in self._entries:
            raise KeyError(f"duplicate insert for {object_id!r}")
        self._entries[object_id] = point

    def remove(self, object_id: str) -> Point:
        return self._entries.pop(object_id)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, object_id: str) -> Point | None:
        return self._entries.get(object_id)

    def update(self, object_id: str, point: Point) -> None:
        if object_id not in self._entries:
            raise KeyError(object_id)
        self._entries[object_id] = point

    def update_many(self, moves) -> None:
        """Plain dict stores; the validation lookup is the only overhead."""
        entries = self._entries
        for object_id, point in moves:
            if object_id not in entries:
                raise KeyError(object_id)
            entries[object_id] = point

    def bulk_load(self, entries) -> None:
        """One upfront duplicate check, then a single dict merge."""
        self._entries.update(self._validated_batch(entries))

    def query_rect(self, rect: Rect) -> Iterator[tuple[str, Point]]:
        for object_id, point in self._entries.items():
            if rect.contains_point(point):
                yield object_id, point

    def query_rect_many(self, rects) -> list[list[tuple[str, Point]]]:
        """One scan over the entries serves every rect in the batch."""
        rect_list = list(rects)
        results: list[list[tuple[str, Point]]] = [[] for _ in rect_list]
        if not rect_list:
            return results
        enumerated = list(enumerate(rect_list))
        for object_id, point in self._entries.items():
            for i, rect in enumerated:
                if rect.contains_point(point):
                    results[i].append((object_id, point))
        return results

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = float("inf")
    ) -> list[NeighborHit]:
        if k < 1:
            return []
        candidates = (
            NeighborHit(object_id, p, point.distance_to(p))
            for object_id, p in self._entries.items()
        )
        within = (hit for hit in candidates if hit.distance <= max_distance)
        return heapq.nsmallest(k, within, key=lambda hit: (hit.distance, hit.object_id))

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[str, Point]]:
        return iter(self._entries.items())

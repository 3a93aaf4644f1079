"""Uniform grid index.

A simple fixed-cell-size hash grid: the classic competitor to trees for
uniformly distributed moving objects (updates are O(1) dictionary moves).
Included as the third point in the spatial-index ablation (Ablation C,
``bench_spatial_index.py``); the paper itself discusses only quadtrees and R-trees.

The store is organised for the paper's update-dominant workload: each
object owns one mutable record ``[point, col, row, cell_dict]`` that both
the id map and its cell reference.  A move that stays in the same cell —
the overwhelming case for small displacements — rewrites the record's
point slot in place: one dict lookup, two floor divisions and one list
store, with no key tuple allocated and no dict mutated.  Queries pay one
extra list indexing per candidate in exchange.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.geo import Point, Rect
from repro.spatial.base import NeighborHit, SpatialIndex, keep_nearest

_INF = float("inf")

# Record slots: _POS holds the live point, _COL/_ROW the cell key, _CELL
# the cell dict currently containing the record.
_POS, _COL, _ROW, _CELL = 0, 1, 2, 3


class GridIndex(SpatialIndex):
    """Hash grid with square cells of a fixed size.

    Args:
        cell_size: edge length of a grid cell in meters.  Should be on the
            order of typical query radii; defaults to 100 m (the medium
            range-query size of Table 1).
    """

    __slots__ = ("_cell_size", "_inv_cell", "_cells", "_entries")

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        # Every cell-key computation multiplies by the inverse instead of
        # dividing; the formula must be identical everywhere (assignment
        # and query windows) so boundary rounding stays consistent.
        self._inv_cell = 1.0 / cell_size
        #: (col, row) → {object_id: record}
        self._cells: dict[tuple[int, int], dict[str, list]] = {}
        #: object_id → record (shared with the cell dict)
        self._entries: dict[str, list] = {}

    def _key(self, point: Point) -> tuple[int, int]:
        return (
            math.floor(point.x * self._inv_cell),
            math.floor(point.y * self._inv_cell),
        )

    # -- mutation -----------------------------------------------------------

    def insert(self, object_id: str, point: Point) -> None:
        if object_id in self._entries:
            raise KeyError(f"duplicate insert for {object_id!r}")
        key = self._key(point)
        cell = self._cells.setdefault(key, {})
        record = [point, key[0], key[1], cell]
        self._entries[object_id] = record
        cell[object_id] = record

    def remove(self, object_id: str) -> Point:
        record = self._entries.pop(object_id)
        cell = record[_CELL]
        del cell[object_id]
        if not cell:
            del self._cells[(record[_COL], record[_ROW])]
        return record[_POS]

    def clear(self) -> None:
        self._cells.clear()
        self._entries.clear()

    def update(self, object_id: str, point: Point) -> None:
        """O(1) dict move; a same-cell move rewrites the record in place."""
        record = self._entries.get(object_id)
        if record is None:
            raise KeyError(object_id)
        inv = self._inv_cell
        col = math.floor(point.x * inv)
        row = math.floor(point.y * inv)
        if record[_COL] == col and record[_ROW] == row:
            record[_POS] = point
            return
        cell = record[_CELL]
        del cell[object_id]
        if not cell:
            del self._cells[(record[_COL], record[_ROW])]
        target = self._cells.setdefault((col, row), {})
        record[_POS] = point
        record[_COL] = col
        record[_ROW] = row
        record[_CELL] = target
        target[object_id] = record

    def update_many(self, moves) -> None:
        """Batched moves; same-cell moves touch one record slot.

        Binding the entry and cell maps to locals removes the per-move
        attribute lookups the sequential path pays; everything else is
        already minimal (see the module docstring).
        """
        entries = self._entries
        cells = self._cells
        inv = self._inv_cell
        floor = math.floor
        for object_id, point in moves:
            record = entries.get(object_id)
            if record is None:
                raise KeyError(object_id)
            col = floor(point.x * inv)
            row = floor(point.y * inv)
            if record[_COL] == col and record[_ROW] == row:
                record[_POS] = point
                continue
            cell = record[_CELL]
            del cell[object_id]
            if not cell:
                del cells[(record[_COL], record[_ROW])]
            new_key = (col, row)
            target = cells.get(new_key)
            if target is None:
                target = cells[new_key] = {}
            record[_POS] = point
            record[_COL] = col
            record[_ROW] = row
            record[_CELL] = target
            target[object_id] = record

    def bulk_load(self, entries) -> None:
        """Load a batch with one upfront duplicate check.

        Validates ids once against the current contents (and within the
        batch), then fills the maps without the per-item membership test
        :meth:`insert` pays.
        """
        fresh = self._validated_batch(entries)
        cells = self._cells
        entry_map = self._entries
        key_of = self._key
        for object_id, point in fresh.items():
            key = key_of(point)
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = {}
            record = [point, key[0], key[1], cell]
            entry_map[object_id] = record
            cell[object_id] = record

    def get(self, object_id: str) -> Point | None:
        record = self._entries.get(object_id)
        return record[_POS] if record is not None else None

    # -- queries ------------------------------------------------------------

    def query_rect(self, rect: Rect) -> Iterator[tuple[str, Point]]:
        col_lo = math.floor(rect.min_x * self._inv_cell)
        col_hi = math.floor(rect.max_x * self._inv_cell)
        row_lo = math.floor(rect.min_y * self._inv_cell)
        row_hi = math.floor(rect.max_y * self._inv_cell)
        # Iterate whichever is smaller: the covered cell window or the
        # populated cell set (large rects over sparse grids).
        window = (col_hi - col_lo + 1) * (row_hi - row_lo + 1)
        if window <= len(self._cells):
            for col in range(col_lo, col_hi + 1):
                for row in range(row_lo, row_hi + 1):
                    cell = self._cells.get((col, row))
                    if not cell:
                        continue
                    for object_id, record in cell.items():
                        point = record[_POS]
                        if rect.contains_point(point):
                            yield object_id, point
        else:
            for (col, row), cell in self._cells.items():
                if col_lo <= col <= col_hi and row_lo <= row <= row_hi:
                    for object_id, record in cell.items():
                        point = record[_POS]
                        if rect.contains_point(point):
                            yield object_id, point

    # query_rect_many: the base-class per-rect loop is as fast as a
    # specialized walk here (measured within noise), so the grid keeps
    # one copy of the boundary-sensitive window logic.

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = _INF
    ) -> list[NeighborHit]:
        """Expanding-ring search over grid cells."""
        if k < 1 or not self._entries:
            return []
        center_col, center_row = self._key(point)
        best: list[NeighborHit] = []
        ring = 0
        max_ring = self._max_ring(point, max_distance)
        while ring <= max_ring:
            # Cells on this ring can hold a point no closer than
            # (ring - 1) * cell_size; stop once the current k-th best beats
            # anything a farther ring could offer.
            ring_min_dist = max(0.0, (ring - 1)) * self._cell_size
            if len(best) == k and best[-1].distance < ring_min_dist:
                break
            for col, row in _ring_cells(center_col, center_row, ring):
                cell = self._cells.get((col, row))
                if not cell:
                    continue
                for object_id, record in cell.items():
                    p = record[_POS]
                    d = point.distance_to(p)
                    if d > max_distance:
                        continue
                    keep_nearest(best, NeighborHit(object_id, p, d), k)
            ring += 1
        return best

    def _max_ring(self, point: Point, max_distance: float) -> int:
        if math.isinf(max_distance):
            if not self._cells:
                return 0
            center_col, center_row = self._key(point)
            return max(
                max(abs(col - center_col), abs(row - center_row))
                for col, row in self._cells
            )
        return int(max_distance / self._cell_size) + 1

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[str, Point]]:
        for object_id, record in self._entries.items():
            yield object_id, record[_POS]

    def cell_count(self) -> int:
        """Number of populated cells; for diagnostics."""
        return len(self._cells)


def _ring_cells(center_col: int, center_row: int, ring: int) -> Iterator[tuple[int, int]]:
    """The cells whose Chebyshev distance from the center equals ``ring``."""
    if ring == 0:
        yield center_col, center_row
        return
    for col in range(center_col - ring, center_col + ring + 1):
        yield col, center_row - ring
        yield col, center_row + ring
    for row in range(center_row - ring + 1, center_row + ring):
        yield center_col - ring, row
        yield center_col + ring, row

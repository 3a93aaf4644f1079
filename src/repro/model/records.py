"""Core service-model records (paper Section 3).

* :class:`LocationDescriptor` — ``ld(o) = (pos, acc)``: the position the
  LS stores for a tracked object plus the worst-case deviation, defining
  the circular *location area* of Fig. 2.
* :class:`SightingRecord` — ``s = (oId, t, pos, accsens)``: one sensor
  sighting sent on registration and position updates (Section 3.1).
* :class:`SightingColumns` — an envelope's sightings as columns, read as
  a sequence of :class:`SightingRecord`.
* :class:`RegistrationInfo` — the ``regInfo`` record kept in a leaf
  server's visitor DB: who registered the object and the negotiated
  accuracy range ``[desAcc, minAcc]``.

A note on the accuracy ordering that trips up every reader of the paper:
**smaller numbers mean better accuracy** ("the smaller the value of
ld(o).acc the higher is the accuracy").  ``desAcc <= minAcc`` therefore
holds for every valid request: the desired accuracy is the tighter bound
and ``minAcc`` is the worst deviation the client will accept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from repro.errors import LocationServiceError
from repro.geo import Circle, Point


class InvalidRecordError(LocationServiceError):
    """A record failed validation."""


@dataclass(frozen=True, slots=True)
class LocationDescriptor:
    """The position + worst-case accuracy the LS reports for an object.

    Invariant (Fig. 2): ``DISTANCE(pos, real_position) <= acc``.
    """

    pos: Point
    acc: float

    def __post_init__(self) -> None:
        if self.acc < 0:
            raise InvalidRecordError(f"accuracy must be non-negative, got {self.acc}")

    @property
    def location_area(self) -> Circle:
        """The circular area the object is guaranteed to be in (Fig. 2)."""
        return Circle(self.pos, self.acc)

    def could_contain(self, real_position: Point) -> bool:
        """Whether ``real_position`` is consistent with this descriptor."""
        return self.pos.distance_to(real_position) <= self.acc

    def with_accuracy(self, acc: float) -> "LocationDescriptor":
        return replace(self, acc=acc)


@dataclass(frozen=True, slots=True)
class SightingRecord:
    """One sighting of a tracked object (Section 3.1).

    Attributes:
        object_id: identifier, unique in the LS namespace (``s.oId``).
        timestamp: time of the sighting in seconds (``s.t``); the paper
            assumes synchronized clocks (e.g. GPS time).
        pos: position at ``timestamp`` (``s.pos``).
        acc_sens: sensor accuracy — the maximum distance between the
            reported and the true position at sighting time
            (``s.accsens``).
    """

    object_id: str
    timestamp: float
    pos: Point
    acc_sens: float

    def __post_init__(self) -> None:
        if not self.object_id:
            raise InvalidRecordError("sighting needs a non-empty object id")
        if self.acc_sens < 0:
            raise InvalidRecordError(f"sensor accuracy must be non-negative, got {self.acc_sens}")


#: a sighting's float fields, in the view's column order.
_FLOAT_FIELDS = tuple(map(attrgetter, ("timestamp", "pos.x", "pos.y", "acc_sens")))


class SightingColumns(Sequence):
    """Sightings as columns — ``ids`` (a list of str) and ``t``, ``x``,
    ``y``, ``acc`` (float64 arrays) — and a read-only sequence of the
    :class:`SightingRecord` rows, built once, on demand; it compares and
    hashes as their tuple.  The wire decodes a ``seq`` of sightings into
    one; validation, the in-area split and the columnar store run on its
    columns.  Its items keep the record rules (else
    :class:`InvalidRecordError`)."""

    __slots__ = ("ids", "t", "x", "y", "acc", "columns", "_rows")

    def __init__(self, ids: list, t, x, y, acc) -> None:
        if "" in ids:
            raise InvalidRecordError("sighting needs a non-empty object id")
        if (least := np.fmin.reduce(acc, initial=0.0)) < 0:  # (fmin passes over a nan)
            raise InvalidRecordError(f"sensor accuracy must be non-negative, got {least}")
        self.ids, self.t, self.x, self.y, self.acc = ids, t, x, y, acc
        self.columns = (ids, t, x, y, acc)  # the schema's field columns, ``pos`` inline
        self._rows: tuple | None = None

    @classmethod
    def of(cls, sightings) -> "SightingColumns":
        """``sightings`` itself when it is a view, else a view of the records."""
        if type(sightings) is cls:
            return sightings
        rows = tuple(sightings)
        floats = (np.fromiter(map(get, rows), np.float64, len(rows)) for get in _FLOAT_FIELDS)
        view = cls([s.object_id for s in rows], *floats)
        view._rows = rows
        return view

    @staticmethod
    def ids_of(sightings) -> list:
        """The object ids of a view or of records, building neither."""
        if type(sightings) is SightingColumns:
            return list(sightings.ids)
        return [s.object_id for s in sightings]

    def take(self, indexes: list) -> "SightingColumns":
        """The view of the items at ``indexes``, in that order."""
        ids, at = self.ids, np.array(indexes, np.intp)
        return SightingColumns([ids[i] for i in indexes], *(c[at] for c in self.columns[1:]))

    def _all(self) -> tuple:
        if self._rows is None:
            from repro.runtime.schema import builder_of  # the runtime layer imports this one

            points = map(builder_of(Point), self.x.tolist(), self.y.tolist())
            row = builder_of(SightingRecord)
            self._rows = tuple(map(row, self.ids, self.t.tolist(), points, self.acc.tolist()))
        return self._rows

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, SightingColumns)):
            return self._all() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._all())


@dataclass(frozen=True, slots=True)
class RegistrationInfo:
    """The ``regInfo`` component of a leaf visitor record (Section 5).

    Attributes:
        registrar: identifier of the registering instance (``reg``) —
            where accuracy-change notifications are sent.
        des_acc: desired accuracy in meters (tight bound).
        min_acc: minimal acceptable accuracy in meters (loose bound).
    """

    registrar: str
    des_acc: float
    min_acc: float

    def __post_init__(self) -> None:
        if self.des_acc < 0:
            raise InvalidRecordError(f"desired accuracy must be non-negative, got {self.des_acc}")
        if self.min_acc < self.des_acc:
            raise InvalidRecordError(
                "minimal accuracy must be no tighter than desired accuracy "
                f"(des_acc={self.des_acc}, min_acc={self.min_acc}; "
                "remember: smaller = more accurate)"
            )

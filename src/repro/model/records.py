"""Core service-model records (paper Section 3).

* :class:`LocationDescriptor` — ``ld(o) = (pos, acc)``: the position the
  LS stores for a tracked object plus the worst-case deviation, defining
  the circular *location area* of Fig. 2.
* :class:`SightingRecord` — ``s = (oId, t, pos, accsens)``: one sensor
  sighting sent on registration and position updates (Section 3.1).
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

from dataclasses import dataclass, replace

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

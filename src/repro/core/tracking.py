"""Stationary tracking systems (paper Section 3 / Section 6 intro).

"The position of a tracked object can be determined either by a
positioning system attached to the mobile device, such as a GPS sensor,
or by an external stationary tracking system, like the Active Badge
system."  Section 6 adds that extending the algorithms "to also support
stationary tracking sensors is straightforward" — this module is that
extension.

A :class:`StationaryTracker` models an Active-Badge-style installation:
a set of *sensor cells* (rooms, corridors) wired to one controller.  The
controller — not the mobile object — is the **registering instance**: it
registers badges it sights, forwards their sightings with cell-center
positions and cell-radius accuracy, and receives the LS's
``notifyAvailAcc`` callbacks.  Tracked objects seen by a tracker need no
network presence of their own, exactly like badge wearers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import messages as m
from repro.errors import LocationServiceError, RegistrationError
from repro.geo import Point, Rect
from repro.model import SightingRecord
from repro.runtime.base import Endpoint


@dataclass(frozen=True, slots=True)
class SensorCell:
    """One sensing zone of a stationary installation.

    A badge sighted in a cell is reported at the cell center with the
    cell's circumradius as sensor accuracy — the paper's cell-granular
    positioning (Active Badge delivers "position by means of cell
    identities").
    """

    cell_id: str
    area: Rect

    @property
    def position(self) -> Point:
        return self.area.center

    @property
    def accuracy(self) -> float:
        """Worst-case distance from the reported center to the badge."""
        return self.area.max_distance_to_point(self.area.center)


class StationaryTracker(Endpoint):
    """An external tracking system acting as registering instance."""

    def __init__(
        self,
        tracker_id: str,
        cells: list[SensorCell],
        entry_server: str,
        des_acc: float | None = None,
        min_acc: float = 500.0,
        timeout: float | None = None,
    ) -> None:
        """
        Args:
            cells: the installation's sensor cells (must be non-empty).
            entry_server: leaf server this installation reports to.
            des_acc: desired accuracy for badge registrations; defaults
                to the coarsest cell accuracy (the tracker cannot promise
                better than its cells resolve).
            min_acc: minimal acceptable accuracy.
        """
        super().__init__(f"tracker:{tracker_id}")
        if not cells:
            raise LocationServiceError("a tracker needs at least one sensor cell")
        self.cells = {cell.cell_id: cell for cell in cells}
        if len(self.cells) != len(cells):
            raise LocationServiceError("duplicate sensor cell ids")
        self.entry_server = entry_server
        coarsest = max(cell.accuracy for cell in cells)
        self.des_acc = des_acc if des_acc is not None else coarsest
        self.min_acc = max(min_acc, self.des_acc)
        self.timeout = timeout
        #: badge id → (agent, offered accuracy)
        self.badges: dict[str, tuple[str, float]] = {}
        #: accuracy-change notifications, per badge
        self.acc_notifications: dict[str, list[float]] = {}
        self.on(m.NotifyAvailAcc, self._on_notify_acc)

    def _on_notify_acc(self, msg: m.NotifyAvailAcc) -> None:
        self.acc_notifications.setdefault(msg.object_id, []).append(msg.offered_acc)
        if msg.object_id in self.badges:
            agent, _ = self.badges[msg.object_id]
            self.badges[msg.object_id] = (agent, msg.offered_acc)

    def _sighting(self, badge_id: str, cell: SensorCell) -> SightingRecord:
        return SightingRecord(
            object_id=badge_id,
            timestamp=self.ctx.now(),
            pos=cell.position,
            acc_sens=cell.accuracy,
        )

    async def sight(self, badge_id: str, cell_id: str) -> float:
        """Report a badge sighting in a cell.

        First sighting registers the badge with the LS (the tracker as
        registering instance); later sightings are position updates sent
        to the badge's current agent.  Returns the offered accuracy.
        """
        cell = self.cells.get(cell_id)
        if cell is None:
            raise LocationServiceError(f"unknown sensor cell {cell_id!r}")
        if badge_id not in self.badges:
            return await self._register(badge_id, cell)
        return await self._update(badge_id, cell)

    async def _register(self, badge_id: str, cell: SensorCell) -> float:
        res = await self.request(
            self.entry_server,
            m.RegisterReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                sighting=self._sighting(badge_id, cell),
                des_acc=self.des_acc,
                min_acc=self.min_acc,
                registrar=self.address,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.RegisterRes)
        if not res.ok:
            raise RegistrationError(res.error or f"registration of {badge_id} failed")
        self.badges[badge_id] = (res.agent, res.offered_acc)
        return res.offered_acc

    async def _update(self, badge_id: str, cell: SensorCell) -> float:
        agent, offered = self.badges[badge_id]
        res = await self.request(
            agent,
            m.UpdateReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                sighting=self._sighting(badge_id, cell),
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.UpdateRes)
        if res.deregistered:
            del self.badges[badge_id]
            raise LocationServiceError(
                f"badge {badge_id} left the service area and was deregistered"
            )
        if not res.ok:
            # The agent changed underneath us (e.g. server recovery); the
            # badge must be re-registered on the next sighting.
            del self.badges[badge_id]
            raise LocationServiceError(res.error or f"update for {badge_id} rejected")
        self.badges[badge_id] = (res.agent, res.offered_acc)
        return res.offered_acc

    async def badge_lost(self, badge_id: str) -> bool:
        """Deregister a badge that left the installation for good."""
        entry = self.badges.pop(badge_id, None)
        if entry is None:
            return False
        agent, _ = entry
        res = await self.request(
            agent,
            m.DeregisterReq(
                request_id=self.next_request_id(),
                reply_to=self.address,
                object_id=badge_id,
            ),
            timeout=self.timeout,
        )
        assert isinstance(res, m.DeregisterRes)
        return res.ok

    @property
    def tracked_count(self) -> int:
        return len(self.badges)

"""Accuracy negotiation and decay (paper Sections 3 and 3.1).

The accuracy the LS can offer for an object depends on the sensor system,
the update protocol and the update frequency ([15]).  This module models
that dependency so registration (Algorithm 6-1, line 3: "determine
maximum accuracy with which the location information can be managed")
has a concrete, configurable implementation.

The negotiated value follows Algorithm 6-1 line 8:
``offeredAcc = max(acc, desAcc)`` — the service never promises more than
it can achieve (``acc``) and never reports better than the client asked
for (``desAcc``), which lets tracked objects bound update frequency and
enforce privacy ("I am in town" vs. "I am at the central station").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LocationServiceError


class NegotiationError(LocationServiceError):
    """Raised on inconsistent accuracy-negotiation input."""


@dataclass(frozen=True, slots=True)
class AccuracyModel:
    """What a leaf server can achieve for its service area.

    Attributes:
        sensor_floor: best sensor accuracy available in the area, meters
            (GPS ≈ 10 m outdoors, Active Bat ≈ 0.1 m indoors).
        update_slack: additional worst-case deviation introduced by the
            update protocol between reports (an object reports when it has
            drifted by its offered accuracy, so the recorded position can
            be off by up to the reporting threshold plus network delay
            drift), meters.
    """

    sensor_floor: float = 10.0
    update_slack: float = 5.0

    def __post_init__(self) -> None:
        if self.sensor_floor < 0 or self.update_slack < 0:
            raise NegotiationError("accuracy-model parameters must be non-negative")

    @property
    def achievable(self) -> float:
        """The best (smallest) accuracy the server can manage (``acc``)."""
        return self.sensor_floor + self.update_slack

    def negotiate(self, des_acc: float, min_acc: float) -> float | None:
        """Algorithm 6-1 lines 3–8 for one registration attempt.

        Returns:
            The offered accuracy ``max(achievable, des_acc)`` when the
            service can satisfy ``min_acc``, else ``None`` (registration
            fails with ``registerFailed``).

        Raises:
            NegotiationError: if the request range is inverted.
        """
        if min_acc < des_acc:
            raise NegotiationError(
                f"inverted accuracy range: des_acc={des_acc}, min_acc={min_acc}"
            )
        if self.achievable > min_acc:
            return None
        return max(self.achievable, des_acc)

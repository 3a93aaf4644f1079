"""Leaf-server caches (paper Section 6.5).

Three caches, each individually switchable so the caching ablation bench
can isolate their effects:

* **(leaf server, service area)** — learned from every message that
  carries a leaf origin area; lets handovers and range queries contact
  responsible leaves directly instead of traversing the hierarchy.
  Service areas are static in this reproduction, so entries never go
  stale (the paper expects them to "change seldomly").
* **(tracked object, current agent)** — learned from position-query
  answers; entries go stale when the object hands over, so a direct
  probe can miss and must fall back to the hierarchy.
* **(tracked object, position descriptor)** — learned from position-query
  answers; served only while the descriptor, aged by the object's
  maximum speed, still satisfies the client's requested accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo import Rect
from repro.model import LocationDescriptor


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Which §6.5 caches a leaf server runs."""

    area_cache: bool = False
    agent_cache: bool = False
    descriptor_cache: bool = False
    #: assumed maximum object speed (m/s) for descriptor aging.
    max_speed: float = 50.0

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """The paper's measured prototype: no caching (Section 7)."""
        return cls()

    @classmethod
    def all_enabled(cls, max_speed: float = 50.0) -> "CacheConfig":
        return cls(
            area_cache=True, agent_cache=True, descriptor_cache=True, max_speed=max_speed
        )

    @property
    def any_enabled(self) -> bool:
        return self.area_cache or self.agent_cache or self.descriptor_cache


@dataclass
class CacheStats:
    """Hit/miss counters, read by the caching ablation bench."""

    area_hits: int = 0
    area_misses: int = 0
    agent_hits: int = 0
    agent_stale: int = 0
    agent_misses: int = 0
    descriptor_hits: int = 0
    descriptor_misses: int = 0
    #: explicit §6.5 invalidation broadcasts applied (topology changes).
    invalidations_applied: int = 0


@dataclass
class _CachedDescriptor:
    descriptor: LocationDescriptor
    as_of: float


class LeafCaches:
    """The cache state attached to one leaf location server."""

    __slots__ = (
        "config",
        "stats",
        "_areas",
        "_agents",
        "_agent_refs",
        "_descriptors",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._areas: dict[str, Rect] = {}
        self._agents: dict[str, str] = {}
        #: agent address → number of (object → agent) entries targeting
        #: it; keeps :meth:`holds_route_to` O(1) for the scoped
        #: invalidation broadcast (probed per leaf at every cutover).
        self._agent_refs: dict[str, int] = {}
        self._descriptors: dict[str, _CachedDescriptor] = {}

    # -- (leaf server, service area) -----------------------------------------

    def note_leaf_area(self, leaf_id: str, area: Rect | None) -> None:
        if self.config.area_cache and area is not None:
            self._areas[leaf_id] = area

    def leaf_for_point(self, x: float, y: float):
        """The cached leaf whose area contains the point, if any."""
        if not self.config.area_cache:
            return None
        from repro.geo import Point

        p = Point(x, y)
        for leaf_id, area in self._areas.items():
            if area.contains_point_halfopen(p):
                self.stats.area_hits += 1
                return leaf_id
        self.stats.area_misses += 1
        return None

    def leaves_covering(self, dispatch: Rect) -> list[tuple[str, Rect]] | None:
        """Cached leaves that *fully* tile ``dispatch``, or ``None``.

        Because service areas are disjoint, the cached leaves cover the
        dispatch rect exactly when their intersection areas sum to its
        area.
        """
        if not self.config.area_cache:
            return None
        touching = [
            (leaf_id, area)
            for leaf_id, area in self._areas.items()
            if area.intersection_area(dispatch) > 0.0
        ]
        covered = sum(area.intersection_area(dispatch) for _, area in touching)
        if covered + 1e-6 * max(dispatch.area, 1.0) >= dispatch.area:
            self.stats.area_hits += 1
            return touching
        self.stats.area_misses += 1
        return None

    def holds_route_to(self, server_id: str) -> bool:
        """Whether any cache entry currently routes to ``server_id``.

        The scoped §6.5 invalidation broadcast asks this before sending:
        a leaf that never learned a retiring address has nothing to
        forget, so the cutover need not message it at all (it re-learns
        the new owners lazily, from its next answer).  O(1): the agent
        cache keeps a per-address reference count exactly for this
        probe — a linear scan here would hand the cost the scoping
        removes from the network back to the CPU on wide deployments.
        """
        return server_id in self._areas or server_id in self._agent_refs

    def _drop_agent_entry(self, object_id: str) -> None:
        agent = self._agents.pop(object_id, None)
        if agent is not None:
            remaining = self._agent_refs.get(agent, 0) - 1
            if remaining > 0:
                self._agent_refs[agent] = remaining
            else:
                self._agent_refs.pop(agent, None)

    def forget_server(self, server_id: str) -> None:
        """Drop every cache entry that routes to ``server_id``.

        Called when a server leaves the network for good (a garbage-
        collected retirement alias): a cached §6.5 dispatch to it would
        be a dead letter, with nothing left behind the address to heal
        the sender.
        """
        self._areas.pop(server_id, None)
        if self._agent_refs.pop(server_id, None) is not None:
            stale = [
                oid for oid, agent in self._agents.items() if agent == server_id
            ]
            for oid in stale:
                del self._agents[oid]

    def apply_invalidation(
        self, forget: tuple[str, ...], learned: tuple[tuple[str, Rect], ...]
    ) -> None:
        """Apply one §6.5 invalidation broadcast (topology cutover).

        Entries routing to the ``forget`` servers are dropped — their
        role changed, so a cached dispatch to them would pay a healing
        forward hop (split) or a retirement-alias hop (merge) — and the
        ``learned`` (leaf, area) pairs pre-seed the area cache with the
        new owners, skipping the hierarchy round trip the next dispatch
        would otherwise need to re-learn them.
        """
        for server_id in forget:
            self.forget_server(server_id)
        for server_id, area in learned:
            self.note_leaf_area(server_id, area)
        if self.config.any_enabled:
            self.stats.invalidations_applied += 1

    # -- (tracked object, current agent) ------------------------------------------

    def note_agent(self, object_id: str, agent: str | None) -> None:
        if self.config.agent_cache and agent is not None:
            self._drop_agent_entry(object_id)  # re-point: old ref released
            self._agents[object_id] = agent
            self._agent_refs[agent] = self._agent_refs.get(agent, 0) + 1

    def agent_of(self, object_id: str) -> str | None:
        if not self.config.agent_cache:
            return None
        agent = self._agents.get(object_id)
        if agent is None:
            self.stats.agent_misses += 1
        else:
            self.stats.agent_hits += 1
        return agent

    def invalidate_agent(self, object_id: str) -> None:
        """Called after a direct probe missed (the object handed over)."""
        if object_id in self._agents:
            self._drop_agent_entry(object_id)
            self.stats.agent_stale += 1
            # The optimistic hit turned out stale; correct the books.
            self.stats.agent_hits -= 1

    # -- (tracked object, position descriptor) ---------------------------------------

    def note_descriptor(
        self, object_id: str, descriptor: LocationDescriptor | None, as_of: float
    ) -> None:
        if self.config.descriptor_cache and descriptor is not None:
            self._descriptors[object_id] = _CachedDescriptor(descriptor, as_of)

    def fresh_descriptor(
        self, object_id: str, now: float, req_acc: float | None
    ) -> LocationDescriptor | None:
        """The cached descriptor aged to ``now``, if still accurate enough.

        Aging follows Section 3 footnote 1: worst-case accuracy grows by
        ``max_speed`` per second since the cached sighting.  Without a
        requested accuracy there is no freshness criterion, so the cache
        is bypassed (the hierarchy always has the authoritative answer).
        """
        if not self.config.descriptor_cache or req_acc is None:
            return None
        cached = self._descriptors.get(object_id)
        if cached is None:
            self.stats.descriptor_misses += 1
            return None
        aged_acc = cached.descriptor.acc + self.config.max_speed * max(0.0, now - cached.as_of)
        if aged_acc <= req_acc:
            self.stats.descriptor_hits += 1
            return cached.descriptor.with_accuracy(aged_acc)
        self.stats.descriptor_misses += 1
        return None

"""Network latency and CPU cost models for the simulated runtime.

Table 2 of the paper was measured on five workstations on switched
100 Mbit Ethernet with UDP messaging.  The simulator reproduces the
*structure* of those numbers — how many network hops and how much
server CPU each operation consumes — with the two models here:

* :class:`LatencyModel` — one-way message delay between two addresses;
* :class:`CostModel` — CPU service time a receiving server spends on a
  message before its handler logic runs.  Service time serialises a
  server's message processing, which is what caps throughput.

Table 2 prices messages with :func:`repro.sim.calibration.
default_cost_model`: fixed costs for our own storage component rather
than the paper's, so Table 2's relative structure *emerges* from the
model and is the same on every host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.runtime.base import Message


@dataclass
class LatencyModel:
    """One-way delay between endpoints.

    Attributes:
        base: fixed per-message one-way delay in seconds (propagation +
            switching + kernel).  The paper's LAN round trips suggest a
            few hundred microseconds each way.
        per_entry: additional serialization delay per result entry
            carried in the message (large range-query answers cost more
            on the wire — the paper calls this out when comparing range
            and position queries).
        jitter: uniform jitter amplitude in seconds (0 = deterministic).
        seed: RNG seed for jitter.
    """

    base: float = 350e-6
    per_entry: float = 1.0e-6
    jitter: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, src: str, dst: str, message: Message) -> float:
        if src == dst:
            return 0.0
        delay = self.base + self.per_entry * _entry_count(message)
        if self.jitter > 0.0:
            delay += self._rng.uniform(0.0, self.jitter)
        return delay


@dataclass
class CostModel:
    """Per-message CPU service time at the receiving server.

    ``service`` maps message type name to seconds of CPU; ``per_entry``
    adds result-size dependent cost (building / merging answer sets).
    Types missing from the map cost ``default``.  A fan-out forward
    (:data:`FAN_OUT_FORWARDS`) pays its cost once per item it carries —
    the receiving leaf runs one index scan for each.

    Non-leaf servers only *route* most messages — they never scan a
    spatial index — so addresses listed in ``routers`` are charged
    ``router_service`` instead of the type-based cost.
    """

    service: dict[str, float] = field(default_factory=dict)
    per_entry: float = 0.0
    default: float = 5e-6
    routers: set[str] = field(default_factory=set)
    router_service: float = 5e-6

    def service_time(self, message: Message, dst: str | None = None) -> float:
        if dst is not None and dst in self.routers:
            return self.router_service + self.per_entry * _entry_count(message)
        name = type(message).__name__
        base = self.service.get(name, self.default)
        if name in FAN_OUT_FORWARDS:
            base *= len(message.items)
        return base + self.per_entry * _entry_count(message)

    @classmethod
    def zero(cls) -> "CostModel":
        """No CPU cost — response times become pure hop counts."""
        return cls(service={}, per_entry=0.0, default=0.0)


#: The query fan-out pair, by type name (this layer sits below
#: ``repro.core.messages``): a forward carries ``items``, a sub-result
#: per-item ``(index, entries, covered)`` triples in ``results``.
FAN_OUT_FORWARDS = frozenset({"RangeQueryBatchFwd", "NNCandidatesBatchFwd"})
FAN_OUT_SUB_RESULTS = frozenset({"RangeQueryBatchSubRes", "NNCandidatesBatchSubRes"})


def _entry_count(message: Message) -> int:
    """Result entries a message carries: a query answer's ``entries``,
    or those inside a fan-out sub-result's ``results``."""
    if type(message).__name__ in FAN_OUT_SUB_RESULTS:
        return sum(len(entries) for _, entries, _ in message.results)
    entries = getattr(message, "entries", None)
    return len(entries) if entries is not None else 0

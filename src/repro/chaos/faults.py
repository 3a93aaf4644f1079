"""Link-level fault injection for every runtime.

The runtimes expose one hook: a network's optional ``fault_injector``
attribute is consulted on every send by
:func:`~repro.runtime.base.admit_send`, *after* the crash
(``network.crash``) and global ``drop_rate`` checks, via::

    deliver, extra_delay, copies, message, replay = injector.verdict(
        src, dst, message
    )

Socket transports additionally
roll :meth:`FaultInjector.frame_corrupt` once per dispatched frame and
damage the encoded bytes with :meth:`FaultInjector.corrupt_bytes` —
byte-layer corruption the CRC32 checksum must catch, distinct from the
message-layer field mutation :meth:`FaultInjector.mutate_message`
applies on the in-process runtimes (damage that *passes* the checksum
and must be caught by receive-path validation instead).

:class:`FaultInjector` implements that protocol from a table of
per-link :class:`LinkFaults` rules.  Everything it does is accounted
in :class:`~repro.runtime.base.NetworkStats`: injected drops land in
``messages_dropped``, manufactured duplicates in
``messages_duplicated`` (never in ``messages_sent`` — the sender paid
for one send), and every rule firing bumps ``faults_injected`` so a
scenario can report exactly how much chaos it applied.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Iterable

from repro.errors import LocationServiceError, WireError
from repro.runtime.schema import schema_of

__all__ = ["LinkFaults", "FaultInjector", "inject_crash"]


@dataclass(frozen=True, slots=True)
class LinkFaults:
    """The fault profile of one directed link.

    ``delay`` adds a fixed extra latency; ``jitter`` adds a further
    uniform ``[0, jitter)`` seconds *per message*, which reorders
    messages relative to their send order.  ``severed`` drops
    everything — the partition primitive — and wins over the
    probabilistic fields.

    The Byzantine knobs (PR 9) model *damaged and lying* traffic rather
    than lost traffic:

    * ``corrupt_rate`` — the delivery event is damaged: at the frame
      layer (socket transports) seeded bit-flips or truncation hit the
      encoded bytes; at the message layer (sim/asyncio runtimes, local
      loopback) one field of the message is mutated
      (:meth:`FaultInjector.mutate_message`).  Every mutation is one the
      receive-path validator can detect — the point is proving the
      defenses catch it, not hiding the damage.
    * ``stale_epoch_rate`` — the message is *also* replayed with an
      ancient topology epoch stamp (``epoch`` rewound by
      :attr:`FaultInjector.stale_epoch_skew`), modelling a
      partition-returned peer echoing pre-reconfiguration state.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    severed: bool = False
    corrupt_rate: float = 0.0
    stale_epoch_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate",
                     "stale_epoch_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("delay", "jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


#: A link with no faults — :meth:`FaultInjector.heal` resets to this.
NO_FAULTS = LinkFaults()


class FaultInjector:
    """Per-link fault rules over one network (install-on-construct).

    Rules are keyed by directed ``(src, dst)`` pairs; ``"*"`` acts as a
    wildcard on either side (an exact pair beats a ``(src, "*")`` rule,
    which beats ``("*", dst)``, which beats ``("*", "*")``).  All
    randomness comes from one seeded RNG, so a scenario replays
    identically for a given seed.
    """

    def __init__(self, network, seed: int = 0) -> None:
        self._network = network
        self._rng = random.Random(seed)
        self._links: dict[tuple[str, str], LinkFaults] = {}
        self._partition: set[tuple[str, str]] = set()
        network.fault_injector = self

    #: how far :meth:`make_stale` rewinds a replayed message's epoch —
    #: far enough that the replay is *always* outside the legitimate
    #: in-flight window the forwarding machinery heals.
    stale_epoch_skew = 1000

    # -- the runtime-facing protocol -----------------------------------------

    def verdict(
        self, src: str, dst: str, message, *, mutate: bool = True
    ):
        """Full per-message verdict:
        ``(deliver, extra_delay_s, extra_copies, message, replay)``.

        ``message`` comes back possibly field-mutated (``corrupt`` rule,
        only when ``mutate`` — socket transports pass ``False`` and do
        their corruption at the frame layer); ``replay`` is an optional
        manufactured stale-epoch echo the runtime must schedule as an
        extra delivery (:func:`~repro.runtime.base.admit_send` counts it
        in ``messages_duplicated``, like a copy).
        """
        faults = self._lookup(src, dst)
        if faults is None:
            return True, 0.0, 0, message, None
        stats = self._network.stats
        if faults.severed:
            stats.faults_injected += 1
            return False, 0.0, 0, message, None
        if faults.drop_rate > 0.0 and self._rng.random() < faults.drop_rate:
            stats.faults_injected += 1
            return False, 0.0, 0, message, None
        fired = False
        extra = 0.0
        if faults.delay > 0.0 or faults.jitter > 0.0:
            extra = faults.delay + (
                faults.jitter * self._rng.random() if faults.jitter > 0.0 else 0.0
            )
            fired = extra > 0.0
        copies = 0
        if faults.duplicate_rate > 0.0 and self._rng.random() < faults.duplicate_rate:
            copies = 1
            fired = True
        if (
            mutate
            and faults.corrupt_rate > 0.0
            and self._rng.random() < faults.corrupt_rate
        ):
            mutated = self.mutate_message(message)
            if mutated is not None:
                message = mutated
                fired = True
        replay = None
        if (
            faults.stale_epoch_rate > 0.0
            and self._rng.random() < faults.stale_epoch_rate
        ):
            replay = self.make_stale(message)
            if replay is not None:
                fired = True
        if fired:
            stats.faults_injected += 1
        return True, extra, copies, message, replay

    # -- byzantine damage helpers --------------------------------------------

    def frame_corrupt(self, src: str, dst: str) -> bool:
        """Roll ``corrupt_rate`` once for a frame-layer delivery event.

        Socket transports call this per dispatched frame (and skip the
        message-layer mutation by passing ``mutate=False`` to
        :meth:`verdict`), so "2% corruption" means 2% of *frames*.
        """
        faults = self._lookup(src, dst)
        if faults is None or faults.severed or faults.corrupt_rate <= 0.0:
            return False
        if self._rng.random() < faults.corrupt_rate:
            self._network.stats.faults_injected += 1
            return True
        return False

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Damage encoded frame bytes: seeded bit-flips or truncation.

        The damage lands anywhere — header, length prefix, checksum,
        payload — exercising every resynchronisation path in
        :class:`~repro.net.wire.FrameDecoder`.
        """
        if not data:
            return data
        if len(data) > 1 and self._rng.random() < 0.25:
            return data[: self._rng.randrange(1, len(data))]
        out = bytearray(data)
        for _ in range(self._rng.randint(1, 3)):
            index = self._rng.randrange(len(out))
            out[index] ^= 1 << self._rng.randrange(8)
        return bytes(out)

    def mutate_message(self, message):
        """A copy of ``message`` with one field mutated — or ``None``.

        Mutations are drawn from the classes the receive-path validator
        (:mod:`repro.runtime.validation`) is guaranteed to reject: a
        float becomes ``NaN``, an epoch goes negative, an identifier
        empties.  Detectability is the point — the defense is proven by
        the damage *never being accepted*, not by it being subtle.
        Returns ``None`` when the message has no mutable field.
        """
        try:
            fields = schema_of(type(message))
        except WireError:
            return None
        # One candidate per field the validator has a rule for — read
        # off the same schema table the validator is compiled from.
        candidates: list[tuple[str, object]] = []
        for field in fields:
            value, rule = field.get(message), field.kind.scalar.rule
            if value is None:
                continue
            if rule == "nan" and value == value:
                candidates.append((field.name, float("nan")))
            elif rule == "epoch":
                candidates.append((field.name, -1 - abs(value)))
            elif rule == "id" and value:
                candidates.append((field.name, ""))
        if not candidates:
            return None
        name, bad = candidates[self._rng.randrange(len(candidates))]
        try:
            return dataclasses.replace(message, **{name: bad})
        except (TypeError, ValueError, LocationServiceError):
            return None  # the constructor refuses the damage itself

    def make_stale(self, message):
        """A replayed copy stamped with an ancient topology epoch, or
        ``None`` for messages that carry no epoch field."""
        epoch = getattr(message, "epoch", None)
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            return None
        try:
            return dataclasses.replace(
                message, epoch=max(0, epoch - self.stale_epoch_skew)
            )
        except (TypeError, ValueError):
            return None

    def _lookup(self, src: str, dst: str) -> LinkFaults | None:
        links = self._links
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            faults = links.get(key)
            if faults is not None:
                return faults
        return None

    # -- rule management ------------------------------------------------------

    def set_link(
        self, src: str, dst: str, faults: LinkFaults, symmetric: bool = False
    ) -> None:
        """Install a fault rule on ``src → dst`` (both directions when
        ``symmetric``)."""
        self._links[(src, dst)] = faults
        if symmetric:
            self._links[(dst, src)] = faults

    def clear_link(self, src: str, dst: str, symmetric: bool = False) -> None:
        self._links.pop((src, dst), None)
        if symmetric:
            self._links.pop((dst, src), None)

    def sever(self, a: str, b: str) -> None:
        """Cut the ``a ↔ b`` link entirely (both directions)."""
        self.set_link(a, b, LinkFaults(severed=True), symmetric=True)

    def heal(self, a: str, b: str) -> None:
        """Restore the ``a ↔ b`` link (removes any rule, both directions)."""
        self.clear_link(a, b, symmetric=True)

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> int:
        """Sever every link between the two groups (a network partition).

        Links *within* each group — and to addresses in neither group,
        e.g. the devices reporting to their local leaf — stay up.
        Returns the number of directed links severed;
        :meth:`heal_partition` undoes exactly this set.
        """
        severed = 0
        for a in group_a:
            for b in group_b:
                if a == b:
                    continue
                self.sever(a, b)
                self._partition.add((a, b))
                self._partition.add((b, a))
                severed += 2
        return severed

    def heal_partition(self) -> int:
        """Restore every link the last :meth:`partition` call severed."""
        healed = len(self._partition)
        for src, dst in self._partition:
            self._links.pop((src, dst), None)
        self._partition.clear()
        return healed

    def clear(self) -> None:
        """Drop every rule (including partition bookkeeping)."""
        self._links.clear()
        self._partition.clear()

    def note_fault(self, count: int = 1) -> None:
        """Account faults injected outside the link rules (e.g. a whole
        server crash) so ``faults_injected`` covers the full scenario."""
        self._network.stats.faults_injected += count

    def detach(self) -> None:
        """Uninstall from the network (rules stop applying)."""
        if getattr(self._network, "fault_injector", None) is self:
            self._network.fault_injector = None


def inject_crash(service, server_id: str):
    """Crash a server *as an injected fault*: exactly
    :meth:`~repro.core.service.LocationService.crash_server`, plus one
    ``faults_injected`` tick so scenario payloads count it."""
    server = service.crash_server(server_id)
    service.network.stats.faults_injected += 1
    return server

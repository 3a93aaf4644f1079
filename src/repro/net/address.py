"""Endpoint-address validation and resolution.

Every layer that previously treated addresses as opaque strings — the
launcher, both socket transports, and the forwarding-alias paths —
funnels through this module, so a malformed address fails loudly at the
boundary instead of dead-lettering silently three hops later.

Two address spaces exist side by side:

* **Logical addresses** — the strings the protocol routes on
  (``"root"``, ``"leaf-nw"``, ``"driver"``, a tracked object's id).
  :func:`validate_address` is the single rule for what is acceptable.
* **Socket locations** — ``(host, port)`` pairs a datagram or stream
  actually travels to.

:class:`AddressBook` maps the first space onto the second.  Its
``fallback`` route is what lets a node process answer endpoints it has
never heard of: the driver's workload clients are created dynamically,
so their replies resolve through the fallback (the driver's own socket)
instead of requiring every transient address to be pre-registered.
"""

from __future__ import annotations

from repro.errors import AddressError

__all__ = [
    "MAX_ADDRESS_LENGTH",
    "validate_address",
    "AddressBook",
]

#: Logical addresses longer than this are rejected — they are almost
#: certainly a payload pasted into an address field by mistake.
MAX_ADDRESS_LENGTH = 256

_FORBIDDEN = set(":\\\n\r\t\x00")


def validate_address(address: str, what: str = "address") -> str:
    """Validate a logical endpoint address; returns it unchanged.

    Rules: a non-empty printable string of at most
    :data:`MAX_ADDRESS_LENGTH` characters with no whitespace, no ``:``
    (reserved for ``host:port`` notation) and no ``\\``.  ``/`` is fine —
    split-derived server ids are path-like (``root.0/c.1``).  Raises
    :class:`~repro.errors.AddressError` otherwise.
    """
    if not isinstance(address, str):
        raise AddressError(f"{what} must be a string, got {type(address).__name__}")
    if not address:
        raise AddressError(f"{what} must be non-empty")
    if len(address) > MAX_ADDRESS_LENGTH:
        raise AddressError(
            f"{what} {address[:32]!r}... exceeds {MAX_ADDRESS_LENGTH} characters"
        )
    for ch in address:
        if ch in _FORBIDDEN or ch.isspace() or not ch.isprintable():
            raise AddressError(f"{what} {address!r} contains forbidden character {ch!r}")
    return address


class AddressBook:
    """Logical address → socket location resolution table.

    ``fallback`` (a ``(host, port)`` pair or ``None``) is returned for
    any address without an explicit binding — the node-side escape hatch
    for the driver's dynamically created workload endpoints.
    """

    __slots__ = ("_routes", "fallback")

    def __init__(
        self,
        routes: dict[str, tuple[str, int]] | None = None,
        fallback: tuple[str, int] | None = None,
    ) -> None:
        self._routes: dict[str, tuple[str, int]] = {}
        self.fallback = fallback
        if routes:
            for address, (host, port) in routes.items():
                self.bind(address, host, port)

    def bind(self, address: str, host: str, port: int) -> None:
        validate_address(address)
        if not 1 <= int(port) <= 65535:
            raise AddressError(f"port {port} for {address!r} is out of range")
        self._routes[address] = (host, int(port))

    def resolve(self, address: str) -> tuple[str, int] | None:
        """The socket location for ``address`` (or the fallback, or None)."""
        route = self._routes.get(address)
        if route is not None:
            return route
        return self.fallback

    def addresses(self) -> tuple[str, ...]:
        return tuple(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    # -- wire form (the launcher sends the book down every node's pipe) -----

    def to_wire(self) -> dict:
        payload: dict = {
            "routes": {
                address: [host, port] for address, (host, port) in self._routes.items()
            }
        }
        if self.fallback is not None:
            payload["fallback"] = [self.fallback[0], self.fallback[1]]
        return payload

    def load(self, payload: dict) -> None:
        """Bind every route of a :meth:`to_wire` payload, and take its
        fallback: a node fills the book its transport already holds."""
        fallback = payload.get("fallback")
        if fallback:
            self.fallback = (fallback[0], int(fallback[1]))
        for address, (host, port) in payload.get("routes", {}).items():
            self.bind(address, host, int(port))

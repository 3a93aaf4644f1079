"""Endpoint-address validation (one helper for the launcher, the
transports, and the service's forwarding aliases)."""

import pytest

from repro.errors import AddressError, TransportError
from repro.net.address import AddressBook, validate_address


class TestValidateAddress:
    @pytest.mark.parametrize(
        "address",
        ["root", "root.0", "root.0/c.1", "driver", "svc-batch-reporter", "a#7"],
    )
    def test_accepts_real_addresses(self, address):
        assert validate_address(address) == address

    @pytest.mark.parametrize(
        "address",
        ["", "has space", "has\ttab", "new\nline", "colon:443", "back\\slash",
         "ctrl\x00char", "\x07bell", "x" * 300, None, 42],
    )
    def test_rejects_malformed(self, address):
        with pytest.raises(AddressError):
            validate_address(address)

    def test_error_names_the_role(self):
        with pytest.raises(AddressError, match="forwarding successor"):
            validate_address("bad addr", what="forwarding successor")

    def test_address_error_is_a_transport_error(self):
        # Callers that guard protocol sends with ``except TransportError``
        # must also catch malformed-address failures.
        assert issubclass(AddressError, TransportError)


class TestAddressBook:
    def test_bind_resolve(self):
        book = AddressBook()
        book.bind("root.0", "127.0.0.1", 9001)
        assert book.resolve("root.0") == ("127.0.0.1", 9001)
        assert book.knows("root.0")
        assert not book.knows("root.1")
        assert book.resolve("root.1") is None

    def test_fallback_routes_unknown_addresses(self):
        book = AddressBook(fallback=("127.0.0.1", 9999))
        book.bind("root.0", "127.0.0.1", 9001)
        assert book.resolve("anything-else") == ("127.0.0.1", 9999)
        assert book.resolve("root.0") == ("127.0.0.1", 9001)

    def test_bind_validates(self):
        book = AddressBook()
        with pytest.raises(AddressError):
            book.bind("bad addr", "127.0.0.1", 9001)
        with pytest.raises(AddressError):
            book.bind("ok", "127.0.0.1", 0)

    @pytest.mark.parametrize("port", [0, -1, 65536, 70000])
    def test_bind_rejects_ports_out_of_range(self, port):
        book = AddressBook()
        with pytest.raises(AddressError, match="out of range"):
            book.bind("root.0", "127.0.0.1", port)
        assert not book.knows("root.0")

    @pytest.mark.parametrize("port", [1, 65535])
    def test_bind_accepts_the_port_range_ends(self, port):
        book = AddressBook()
        book.bind("root.0", "127.0.0.1", port)
        assert book.resolve("root.0") == ("127.0.0.1", port)

    def test_rebind_replaces_the_route(self):
        book = AddressBook()
        book.bind("root.0", "127.0.0.1", 9001)
        book.bind("root.0", "127.0.0.1", 9002)
        assert book.resolve("root.0") == ("127.0.0.1", 9002)
        assert book.addresses() == ("root.0",)

    def test_wire_round_trip(self):
        book = AddressBook(fallback=("127.0.0.1", 9999))
        book.bind("root", "127.0.0.1", 9000)
        book.bind("root.0", "127.0.0.1", 9001)
        clone = AddressBook.from_wire(book.to_wire())
        assert clone.resolve("root.0") == ("127.0.0.1", 9001)
        assert clone.resolve("unknown") == ("127.0.0.1", 9999)
        assert len(clone) == len(book)


class TestServiceIntegration:
    def test_retire_server_rejects_malformed_successor(self):
        from repro.core import LocationService, build_table2_hierarchy

        svc = LocationService(build_table2_hierarchy())
        with pytest.raises(AddressError):
            svc.retire_server("root.0", "not a:valid successor")
        # The reject happened before any state change.
        assert "root.0" in svc.servers
        assert "root.0" not in svc.retired_servers

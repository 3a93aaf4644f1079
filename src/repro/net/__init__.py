"""repro.net — real-transport deployment lane.

The paper's prototype ran its hierarchy as real processes exchanging
UDP datagrams; this package takes the reproduction there:

* :mod:`repro.net.address` — logical-address validation and the
  :class:`~repro.net.address.AddressBook` resolution table (the one
  helper every launcher/transport/alias path uses).
* :mod:`repro.net.wire` — versioned, length-prefixed, CRC-checked
  binary codec for every protocol message (auto-registered by class
  name, typed from :mod:`repro.runtime.schema`), batch envelopes packed
  as columns.
* :mod:`repro.net.transport` / :mod:`~repro.net.udp` /
  :mod:`~repro.net.tcp` — the :class:`~repro.runtime.base.Context`
  contract over real sockets, one frame per send, ``NetworkStats`` and
  the chaos ``fault_injector`` hook preserved.
* :mod:`repro.net.bootstrap` — one OS process per location server:
  spec serialization, ordered startup/shutdown, readiness probing,
  cross-process stats and epoch adoption.
* :mod:`repro.net.scenario` — the festival-surge / commuter-rush
  workloads driven over a live socket cluster, plus the
  in-process-vs-multi-process benchmark payload behind
  ``BENCH_PR7.json``.

Submodules that import the full server stack (bootstrap, scenario) load
lazily so ``repro.core`` can import the address helper without a cycle.
"""

from repro.net.address import (
    AddressBook,
    validate_address,
)
from repro.net.wire import (
    FrameDecoder,
    decode,
    decode_frame,
    decode_hierarchy,
    encode,
    encode_frame,
    encode_hierarchy,
    register_type,
)

__all__ = [
    # address
    "AddressBook",
    "validate_address",
    # wire
    "FrameDecoder",
    "decode",
    "decode_frame",
    "decode_hierarchy",
    "encode",
    "encode_frame",
    "encode_hierarchy",
    "register_type",
    # lazy (transports / launcher / scenario)
    "SocketTransport",
    "SocketContext",
    "UdpTransport",
    "TcpTransport",
    "ClusterLauncher",
    "ClusterSpec",
    "make_transport",
    "run_node",
]

_LAZY = {
    "SocketTransport": ("repro.net.transport", "SocketTransport"),
    "SocketContext": ("repro.net.transport", "SocketContext"),
    "UdpTransport": ("repro.net.udp", "UdpTransport"),
    "TcpTransport": ("repro.net.tcp", "TcpTransport"),
    "ClusterLauncher": ("repro.net.bootstrap", "ClusterLauncher"),
    "ClusterSpec": ("repro.net.bootstrap", "ClusterSpec"),
    "make_transport": ("repro.net.bootstrap", "make_transport"),
    "run_node": ("repro.net.bootstrap", "run_node"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.net' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

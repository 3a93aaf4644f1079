"""One fault script, one set of counters, on every runtime.

Every runtime's ``transmit`` asks :func:`~repro.runtime.base.admit_send`
what the fabric does to a send, so a script of dead letters, crashes,
a severed link and injected faults must leave identical
``NetworkStats`` on the simulated network, the asyncio network and both
socket transports (both endpoints on one transport: loopback delivery).
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.base import Endpoint, Message
from repro.runtime.simnet import SimNetwork


@dataclass(frozen=True, slots=True)
class ParityNote(Message):
    seq: int
    epoch: int = 5


COUNTERS = (
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "messages_duplicated",
    "dead_letters",
    "faults_injected",
)

EXPECTED = {
    "messages_sent": 7,
    # the duplicated send twice, the stale-epoch send plus its replay
    "messages_delivered": 4,
    # crashed destination, crashed source, severed link, drop rule
    "messages_dropped": 4,
    # one copy, one replay
    "messages_duplicated": 2,
    "dead_letters": 1,
    # severed, duplicate, stale epoch, drop rule
    "faults_injected": 4,
}


def fault_script(net) -> Endpoint:
    """Send the script from ``a`` to ``b``; returns ``b``."""
    a = net.join(Endpoint("a"))
    b = net.join(Endpoint("b"))
    injector = FaultInjector(net, seed=0)

    a.send("nowhere", ParityNote(0))  # dead letter

    net.crash("b")
    a.send("b", ParityNote(1))
    net.restore("b")

    net.crash("a")
    a.send("b", ParityNote(2))
    net.restore("a")

    injector.sever("a", "b")
    a.send("b", ParityNote(3))
    injector.clear()

    for seq, faults in (
        (4, LinkFaults(duplicate_rate=1.0)),
        (5, LinkFaults(stale_epoch_rate=1.0)),
        (6, LinkFaults(drop_rate=1.0)),
    ):
        injector.set_link("a", "b", faults)
        a.send("b", ParityNote(seq))
        injector.clear()
    return b


def run_sim():
    net = SimNetwork()
    b = fault_script(net)
    net.run()
    return net.stats, b


def run_asyncio():
    async def scenario():
        net = AsyncioNetwork()
        b = fault_script(net)
        await asyncio.sleep(0.05)
        return net.stats, b

    return asyncio.run(scenario())


def run_socket(cls):
    async def scenario():
        transport = cls()
        await transport.start()
        try:
            b = fault_script(transport)
            await asyncio.sleep(0.05)
        finally:
            await transport.stop()
        return transport.stats, b

    return asyncio.run(scenario())


RUNTIMES = {
    "sim": run_sim,
    "asyncio": run_asyncio,
    "udp": lambda: run_socket(UdpTransport),
    "tcp": lambda: run_socket(TcpTransport),
}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_one_fault_script_gives_one_set_of_counters(runtime):
    stats, b = RUNTIMES[runtime]()
    assert {name: getattr(stats, name) for name in COUNTERS} == EXPECTED
    # What arrived, in order: the copy beside its original, the replay
    # rewound to epoch 0 after the message it echoes.
    assert [(note.seq, note.epoch) for note in b.unhandled] == [
        (4, 5), (4, 5), (5, 5), (5, 0)
    ]

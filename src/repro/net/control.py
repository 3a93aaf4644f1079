"""Node control-plane messages for the multi-process launcher.

These ride the same wire as the protocol lane (they are ordinary
:class:`~repro.runtime.base.Message` dataclasses, so the codec's
auto-registration covers them) but address cluster *operations*, not
locations: stats snapshots and topology adoption.  A node's readiness
and its shutdown are not wire messages: they ride its spawn pipe (see
:mod:`repro.net.bootstrap`), which cannot drop them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hierarchy import ServerConfig
from repro.runtime.base import Message, Response

__all__ = [
    "NodeStatsReq",
    "NodeStatsRes",
    "AdoptHierarchyReq",
    "AdoptHierarchyRes",
]


@dataclass(frozen=True, slots=True)
class NodeStatsReq(Message):
    """Ask a node for its server's tracked count, epoch and transport
    counters (the launcher's cross-process ``verify`` primitive)."""

    request_id: str
    reply_to: str


@dataclass(frozen=True, slots=True)
class NodeStatsRes(Response):
    request_id: str
    server_id: str
    #: objects this server is currently agent-of-record for.
    tracked: int
    #: the server's topology epoch.
    epoch: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    dead_letters: int
    # Defense counters (PR 9) — *trailing defaulted* fields, the wire
    # codec's schema-evolution contract in live use: a frame from a
    # pre-PR-9 node decodes on a new launcher with these at 0, and an
    # old launcher silently ignores them on a new node's reply.
    #: frames the node's transport discarded on CRC/length damage.
    frames_corrupted: int = 0
    #: messages the validator quarantined before any handler ran
    #: (transport + server layers combined).
    messages_quarantined: int = 0
    #: epoch-stamped messages rejected as stale replays.
    stale_epoch_rejected: int = 0


@dataclass(frozen=True, slots=True)
class AdoptHierarchyReq(Message):
    """Push an epoch-bumped hierarchy to a node: the new
    :class:`~repro.core.hierarchy.Hierarchy`'s configs and epoch as typed
    fields, so they are decoded and validated like any other message."""

    request_id: str
    reply_to: str
    configs: tuple[ServerConfig, ...]
    hierarchy_epoch: int


@dataclass(frozen=True, slots=True)
class AdoptHierarchyRes(Response):
    request_id: str
    server_id: str
    epoch: int  # the node's epoch after adoption


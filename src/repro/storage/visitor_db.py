"""The visitor database (paper Section 5).

Every location server keeps a visitor record per tracked object currently
inside its service area.  The record structure differs by server role:

* **non-leaf**: ``(oId, forwardRef)`` — which child is next on the path
  to the object's agent;
* **leaf**: ``(oId, offeredAcc, regInfo)`` — the negotiated accuracy and
  registration information (the sighting itself lives in the sighting
  DB).

The visitor DB writes through to a :class:`~repro.storage.persistence.
PersistentStore` so forwarding paths survive crashes; :meth:`VisitorDB.
recover` rebuilds the in-memory dictionary from the log.  Every handover
appends records, so the DB compacts its own log: the store never holds
more than twice the live records plus :data:`LOG_SLACK`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.model import RegistrationInfo
from repro.storage.persistence import MemoryStore, PersistentStore


@dataclass(frozen=True, slots=True)
class NonLeafVisitorRecord:
    """Forwarding reference stored by a non-leaf server."""

    object_id: str
    forward_ref: str  # child server id on the path to the agent


@dataclass(frozen=True, slots=True)
class LeafVisitorRecord:
    """Full visitor record stored by an object's agent (a leaf server)."""

    object_id: str
    offered_acc: float
    reg_info: RegistrationInfo


VisitorRecord = NonLeafVisitorRecord | LeafVisitorRecord


#: How many removed object ids a visitor DB remembers as tombstones
#: (oldest evicted first).  Tombstones are volatile bookkeeping for the
#: protocol lane's negative acknowledgements — they let a server answer
#: "already gone" instead of "never existed" for a repeat deregistration
#: — so they are not logged to the persistent store.
TOMBSTONE_CAPACITY = 4096

#: How many log records a visitor DB's store may hold beyond twice the
#: live record count before the DB compacts it.  Compaction rewrites the
#: live records, and at least a third of their number plus this slack
#: are appended between two compactions, so its cost stays amortised
#: constant per append.
LOG_SLACK = 4096


class VisitorDB:
    """Persistent map of object id to visitor record."""

    __slots__ = ("_records", "_store", "_tombstones", "max_offered_acc", "_logged", "compactions")

    def __init__(self, store: PersistentStore | None = None) -> None:
        self._records: dict[str, VisitorRecord] = {}
        self._store = store if store is not None else MemoryStore()
        #: insertion-ordered set of recently removed ids (dict-as-set).
        self._tombstones: dict[str, None] = {}
        #: high-water mark of the leaf records' offered accuracies: no
        #: record is coarser, so a range scan need not reach further.
        #: Raised on write, never lowered by :meth:`remove` (a stale mark
        #: is loose, never wrong); :meth:`compact` re-tightens it.
        self.max_offered_acc = 0.0
        #: records the store replays (the last snapshot plus every append
        #: since), counted here so an append never has to ask the store.
        self._logged = 0
        #: times :meth:`compact` ran.
        self.compactions = 0

    # -- mutation (each op is one durable log record) -----------------------

    def _append(self, operation: str, payload: dict) -> None:
        """Log one mutation; compact once the log outgrows its bound."""
        self._store.append(operation, payload)
        self._logged += 1
        if self._logged > 2 * len(self._records) + LOG_SLACK:
            self.compact()

    def insert_forward(self, object_id: str, forward_ref: str) -> None:
        """Create or redirect a non-leaf forwarding record."""
        self._records[object_id] = NonLeafVisitorRecord(object_id, forward_ref)
        self._append("forward", {"oid": object_id, "ref": forward_ref})

    def insert_leaf(
        self, object_id: str, offered_acc: float, reg_info: RegistrationInfo
    ) -> None:
        """Create (or replace) a leaf visitor record — this server becomes
        the object's agent."""
        self._records[object_id] = LeafVisitorRecord(object_id, offered_acc, reg_info)
        self.max_offered_acc = max(self.max_offered_acc, offered_acc)
        self._append(
            "leaf",
            {
                "oid": object_id,
                "acc": offered_acc,
                "registrar": reg_info.registrar,
                "des_acc": reg_info.des_acc,
                "min_acc": reg_info.min_acc,
            },
        )

    def set_offered_acc(self, object_id: str, offered_acc: float) -> None:
        """Update the negotiated accuracy after a ``changeAcc`` request."""
        record = self._records.get(object_id)
        if not isinstance(record, LeafVisitorRecord):
            raise KeyError(object_id)
        self._records[object_id] = LeafVisitorRecord(
            object_id, offered_acc, record.reg_info
        )
        self.max_offered_acc = max(self.max_offered_acc, offered_acc)
        self._append("acc", {"oid": object_id, "acc": offered_acc})

    def insert_forward_many(self, refs: Iterable[tuple[str, str]]) -> list[str | None]:
        """Set a batch of ``(object_id, forward_ref)`` pointers; returns
        each object's previous forward reference (``None``: it had none).

        The migration path uses this to re-point every migrated object in
        one pass when a leaf becomes an interior server; each pointer is
        still one durable log record, so recovery replays identically.
        """
        records = self._records
        append = self._append
        previous = []
        for object_id, forward_ref in refs:
            old = records.get(object_id)
            previous.append(old.forward_ref if isinstance(old, NonLeafVisitorRecord) else None)
            records[object_id] = NonLeafVisitorRecord(object_id, forward_ref)
            append("forward", {"oid": object_id, "ref": forward_ref})
        return previous

    def remove(self, object_id: str) -> None:
        """Drop one record (see :meth:`remove_many`)."""
        self.remove_many((object_id,))

    def remove_many(self, object_ids: Iterable[str]) -> None:
        """Drop each id's record (deregistration or handover departure).

        A removed id is tombstoned so a later lookup can distinguish
        *already gone* from *never existed* (protocol-lane NACKs); an
        unknown id is skipped and logs nothing.
        """
        records = self._records
        tombstones = self._tombstones
        append = self._append
        for object_id in object_ids:
            if object_id in records:
                del records[object_id]
                append("remove", {"oid": object_id})
                tombstones.pop(object_id, None)
                tombstones[object_id] = None
                if len(tombstones) > TOMBSTONE_CAPACITY:
                    tombstones.pop(next(iter(tombstones)))

    def was_removed(self, object_id: str) -> bool:
        """Whether a record for this id was removed recently (bounded
        memory: only the last :data:`TOMBSTONE_CAPACITY` removals are
        remembered, so ``False`` means *no evidence*, not proof)."""
        return object_id in self._tombstones

    @property
    def store(self) -> PersistentStore:
        """The persistent backing store (crash-recovery replays it)."""
        return self._store

    # -- lookup --------------------------------------------------------------

    def get(self, object_id: str) -> VisitorRecord | None:
        return self._records.get(object_id)

    def forward_ref(self, object_id: str) -> str | None:
        record = self._records.get(object_id)
        return record.forward_ref if isinstance(record, NonLeafVisitorRecord) else None

    def leaf_record(self, object_id: str) -> LeafVisitorRecord | None:
        record = self._records.get(object_id)
        return record if isinstance(record, LeafVisitorRecord) else None

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def object_ids(self) -> Iterator[str]:
        return iter(self._records)

    def items(self) -> Iterator[tuple[str, VisitorRecord]]:
        return iter(self._records.items())

    def leaf_records(self) -> Iterator[LeafVisitorRecord]:
        """All full (leaf) visitor records — the agent-side migration set."""
        for record in self._records.values():
            if isinstance(record, LeafVisitorRecord):
                yield record

    # -- durability -----------------------------------------------------------

    def _tighten_max_offered_acc(self) -> None:
        self.max_offered_acc = max(
            (record.offered_acc for record in self.leaf_records()), default=0.0
        )

    def compact(self) -> None:
        """Snapshot current state and truncate the log (called by the log
        bound; a caller may compact earlier)."""
        self._tighten_max_offered_acc()
        records = []
        for record in self._records.values():
            if isinstance(record, NonLeafVisitorRecord):
                records.append(("forward", {"oid": record.object_id, "ref": record.forward_ref}))
            else:
                records.append(
                    (
                        "leaf",
                        {
                            "oid": record.object_id,
                            "acc": record.offered_acc,
                            "registrar": record.reg_info.registrar,
                            "des_acc": record.reg_info.des_acc,
                            "min_acc": record.reg_info.min_acc,
                        },
                    )
                )
        self._store.compact(records)
        self._logged = len(records)
        self.compactions += 1

    @classmethod
    def recover(cls, store: PersistentStore) -> "VisitorDB":
        """Rebuild a visitor DB from its persistent store after a crash;
        every replayed record counts toward the log bound."""
        db = cls(store=store)
        for operation, payload in store.replay():
            db._logged += 1
            oid = payload.get("oid")
            if oid is None:
                raise StorageError(f"log record without object id: {operation}")
            if operation == "forward":
                db._records[oid] = NonLeafVisitorRecord(oid, payload["ref"])
            elif operation == "leaf":
                db._records[oid] = LeafVisitorRecord(
                    oid,
                    payload["acc"],
                    RegistrationInfo(
                        payload["registrar"], payload["des_acc"], payload["min_acc"]
                    ),
                )
            elif operation == "acc":
                record = db._records.get(oid)
                if isinstance(record, LeafVisitorRecord):
                    db._records[oid] = LeafVisitorRecord(oid, payload["acc"], record.reg_info)
            elif operation == "remove":
                db._records.pop(oid, None)
            else:
                raise StorageError(f"unknown log operation {operation!r}")
        db._tighten_max_offered_acc()
        return db

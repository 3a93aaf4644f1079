"""Persistent storage for visitor records and configuration (Section 5).

The paper keeps the visitor DB "in persistent storage, which is updated
only when an object is registered, deregisters or a handover occurs", so
forwarding paths survive server failures.  Its prototype used a DB2
database via JDBC; the substitution here is a classic
write-ahead pattern: an append-only JSON-lines log plus an optional
snapshot.  The owner compacts it under a rule: the visitor DB does so
whenever the log outgrows twice its live records plus
:data:`~repro.storage.visitor_db.LOG_SLACK`, so the log is bounded by
the live set, not by the handovers seen (:class:`MemoryStore` keeps it in RAM).
"""

from __future__ import annotations

import io
import json
import marshal
import os
import warnings
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError

#: One durable mutation record: ``(operation, payload)``.
LogRecord = tuple[str, dict]
_SCALARS = frozenset((str, int, float, bool, type(None)))


class PersistentStore(ABC):
    """Append-only durable log with snapshot + compaction."""

    @abstractmethod
    def append(self, operation: str, payload: dict) -> None:
        """Durably append one mutation record."""

    @abstractmethod
    def replay(self) -> Iterator[LogRecord]:
        """Snapshot records (if any) followed by log records, in order."""

    @abstractmethod
    def compact(self, snapshot_records: list[LogRecord]) -> None:
        """Replace snapshot + log with the given snapshot records."""


class MemoryStore(PersistentStore):
    """In-memory store with durable semantics relative to simulated crashes.

    A *simulated* crash wipes a server's volatile state (sighting DB,
    indexes) but leaves this store untouched, as a disk survives a crash.
    Like a disk it holds bytes: one buffer of ``marshal``-ed records, ~90 B
    a leaf record and no object per record for the GC; replay decodes copies.
    """

    __slots__ = ("_records", "_count")

    def __init__(self) -> None:
        self._records = bytearray()
        self._count = 0

    def append(self, operation: str, payload: dict) -> None:
        self._records += _marshalled(operation, payload)
        self._count += 1

    def replay(self) -> Iterator[LogRecord]:
        records = io.BytesIO(self._records)  # a copy, so appends may go on
        for _ in range(self._count):
            yield marshal.load(records)

    def compact(self, snapshot_records: list[LogRecord]) -> None:
        self._records = bytearray().join(_marshalled(*record) for record in snapshot_records)
        self._count = len(snapshot_records)


def _marshalled(operation: str, payload: dict) -> bytes:
    """Non-scalar values take FileStore's JSON rules (marshal keeps numpy's bytes)."""
    if not _SCALARS.issuperset(map(type, payload.values())):
        payload = json.loads(json.dumps(payload))  # TypeError if unstorable
    return marshal.dumps((operation, payload))


class FileStore(PersistentStore):
    """JSON-lines write-ahead log with snapshot file.

    Layout: ``<stem>.log`` (one JSON object per line, fsync'd on append
    when ``durable=True``) and ``<stem>.snapshot`` (written atomically via
    rename on :meth:`compact`).
    """

    __slots__ = ("_log_path", "_snapshot_path", "_durable")

    def __init__(self, stem: str | Path, durable: bool = False) -> None:
        """
        Args:
            stem: path prefix for the two backing files.
            durable: fsync after every append.  Off by default — the
                evaluation workloads append thousands of records and the
                paper's claim only needs crash-consistency of the format.
        """
        stem = Path(stem)
        stem.parent.mkdir(parents=True, exist_ok=True)
        self._log_path = stem.with_suffix(".log")
        self._snapshot_path = stem.with_suffix(".snapshot")
        self._durable = durable

    def append(self, operation: str, payload: dict) -> None:
        line = json.dumps({"op": operation, "data": payload}, separators=(",", ":"))
        try:
            with open(self._log_path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
                # The append boundary is the durability point: always push
                # the record out of the interpreter's buffer; fsync through
                # the OS cache too when durability was requested.
                f.flush()
                if self._durable:
                    os.fsync(f.fileno())
        except OSError as exc:
            raise StorageError(f"cannot append to {self._log_path}: {exc}") from exc

    def replay(self) -> Iterator[LogRecord]:
        for path in (self._snapshot_path, self._log_path):
            if not path.exists():
                continue
            with open(path, "r", encoding="utf-8") as f:
                for line_no, line in enumerate(f, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        yield record["op"], record["data"]
                    except (json.JSONDecodeError, KeyError, TypeError) as exc:
                        # A torn final line after a crash is expected with
                        # a WAL; anything mid-file is corruption.
                        if path == self._log_path and line_no == _line_count(path):
                            warnings.warn(
                                f"skipping torn trailing record at {path}:{line_no}"
                                " (interrupted append)",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            continue
                        raise StorageError(
                            f"corrupt record at {path}:{line_no}: {exc}"
                        ) from exc

    def compact(self, snapshot_records: list[LogRecord]) -> None:
        """Atomically replace snapshot + log with ``snapshot_records``.

        Crash-safety argument: the snapshot is fully written and fsync'd
        under a temporary name, renamed into place with ``os.replace``,
        and the *directory entry* is fsync'd before the log is unlinked.
        A host crash therefore leaves either (a) the old snapshot + old
        log (rename not yet durable), or (b) the new snapshot, possibly
        still with the old log — never neither.  Case (b) replays stale
        log records *after* the snapshot that already folded them in,
        which is harmless: every visitor-DB operation is a keyed upsert
        or remove, so re-applying a suffix of history is idempotent.
        """
        tmp = self._snapshot_path.with_suffix(".snapshot.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                for operation, payload in snapshot_records:
                    f.write(
                        json.dumps({"op": operation, "data": payload}, separators=(",", ":"))
                        + "\n"
                    )
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self._snapshot_path)
            if self._durable:
                _fsync_dir(self._snapshot_path.parent)
            if self._log_path.exists():
                os.unlink(self._log_path)
                if self._durable:
                    _fsync_dir(self._log_path.parent)
        except OSError as exc:
            raise StorageError(f"compaction failed for {self._snapshot_path}: {exc}") from exc


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (rename/unlink durability on POSIX)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _line_count(path: Path) -> int:
    with open(path, "r", encoding="utf-8") as f:
        return sum(1 for _ in f)

"""One crash-safe append-only JSONL log: the durability contract shared by
the job journal (:mod:`repro.service.journal`) and the run ledger
(:mod:`repro.obs.ledger`).

A :class:`DurableLog` pairs a JSONL file with an in-memory *mirror*: the
fold of every record the process has appended since the last replay.
Subclasses are record schemas.  They name the log (``NAME``, which keys
its counters and fault sites), its header schema (``SCHEMA``), the fold
type (``State``, built with no arguments, exposing ``apply(record)``) and
the compacted record list a rotation writes (:meth:`_live_records`).
Everything else lives here, once (docs/ROBUSTNESS.md, "The durable-log
contract"):

* **framing** — one JSON object per line, ``sort_keys`` and compact
  separators, so equal records are equal bytes;
* **replay** distrusts a **torn tail**: the final line is skipped whenever
  the file does not end in a newline, even if it happens to parse
  (``<name>.replay.torn_skipped``); undecodable interior lines are skipped
  and counted (``<name>.replay.bad_skipped``), never fatal;
* **appends** advance the mirror first, then write, flush and ``fsync``
  before returning; an ``OSError`` (``ENOSPC``) puts the log in a
  degraded cooldown during which appends are shed and counted
  (``<name>.write.errors`` / ``<name>.degraded.skipped``), so the running
  process stays correct and only crash durability is lost;
* **rotation** is atomic (header + live records to a temp file, fsync,
  ``os.replace``), runs on open and when the file outgrows
  ``max(floor, 2 x its size after the last rotation)`` — the doubling
  term keeps a compacted file that is itself over the floor from being
  rewritten on every append — and afterwards the mirror *is* the fold of
  the bytes just written, exactly what a restart would replay;
* **fault sites** ``torn-<name>`` (cut the fresh record mid-line) and
  ``enospc-<name>`` (fail the append), matched on
  ``operation=<record type>`` and ``job_key``.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from typing import Callable, Dict, IO, Iterator, List, Optional

from ..faults.inject import get_injector
from .metrics import MetricsRegistry

__all__ = ["DEGRADED_COOLDOWN", "DurableLog", "iter_records", "read_bytes"]

#: Seconds a log sheds writes after a failed append (ENOSPC etc.).
DEGRADED_COOLDOWN = 5.0

_COUNTERS = (
    "records.written",
    "write.errors",
    "degraded.skipped",
    "rotations",
    "replay.records",
    "replay.torn_skipped",
    "replay.bad_skipped",
)


def _encode(record: Dict[str, object]) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def read_bytes(path: str) -> bytes:
    """The file's bytes; a missing or unreadable file reads as empty."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def iter_records(
    raw: bytes, skipped: Optional[Callable[[str], None]] = None
) -> Iterator[Dict[str, object]]:
    """Yield the JSON-object lines of JSONL bytes, distrusting a torn tail.

    ``skipped("torn")`` is called for an unterminated final line (the
    crash signature, skipped even when it parses) and ``skipped("bad")``
    for an undecodable or non-object interior line.
    """
    lines = raw.split(b"\n")
    trailing_complete = raw.endswith(b"\n")
    if trailing_complete:
        lines = lines[:-1]  # the split artifact after the final newline
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        torn = position == len(lines) - 1 and not trailing_complete
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            record = None
        if torn or not isinstance(record, dict):
            if skipped is not None:
                skipped("torn" if torn else "bad")
            continue
        yield record


class DurableLog:
    """Append side of a crash-safe JSONL log over an in-memory mirror.

    Opening replays whatever the previous process left behind into the
    mirror, then rotates: the file is compacted and any torn tail is
    dropped, so appends start from a fully newline-terminated file.
    """

    NAME: str
    SCHEMA: str
    State: type

    def __init__(
        self, path: str, max_bytes: int, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for suffix in _COUNTERS:
            self.metrics.counter(f"{self.NAME}.{suffix}")
        self._lock = threading.RLock()
        self._handle: Optional[IO[bytes]] = None
        self._degraded_until = 0.0
        self._rotated_size = 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._state = self._fold_lines(read_bytes(path), self.metrics)
        self._rotate_locked()

    @classmethod
    def replay(cls, path: str, metrics: Optional[MetricsRegistry] = None):
        """Fold a log file read-only; a missing file folds to empty state."""
        return cls._fold_lines(read_bytes(path), metrics)

    @classmethod
    def _fold_lines(cls, raw: bytes, metrics: Optional[MetricsRegistry] = None):
        def count(what: str) -> None:
            if metrics is not None:
                metrics.counter(f"{cls.NAME}.replay.{what}").inc()

        state = cls.State()
        for record in iter_records(raw, lambda kind: count(f"{kind}_skipped")):
            count("records")
            state.apply(record)
        return state

    def _live_records(self) -> List[Dict[str, object]]:
        """The compacted records a rotation writes after the header."""
        raise NotImplementedError

    @property
    def degraded(self) -> bool:
        """True while appends are being shed after a write failure."""
        return time.monotonic() < self._degraded_until

    def _append(self, record: Dict[str, object], floor: Optional[int] = None) -> None:
        """Append one record; rotate past ``max(floor, 2 x last rotated size)``
        (``floor`` defaults to ``max_bytes``)."""
        line = _encode(record)
        site = {"operation": str(record.get("rec")), "job_key": record.get("job")}
        with self._lock:
            # The mirror advances even when the disk write is shed.
            self._state.apply(record)
            now = time.monotonic()
            if now < self._degraded_until:
                self.metrics.counter(f"{self.NAME}.degraded.skipped").inc()
                return
            injector = get_injector()
            try:
                if injector is not None and injector.fire(f"enospc-{self.NAME}", **site):
                    raise OSError(errno.ENOSPC, "No space left on device [injected]")
                if self._handle is None:
                    self._handle = open(self.path, "ab")
                self._handle.write(line)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                size = self._handle.tell()
            except OSError:
                self._write_failed()
                return
            self.metrics.counter(f"{self.NAME}.records.written").inc()
            if injector is not None and injector.fire(f"torn-{self.NAME}", **site):
                self._tear_tail_locked(size - len(line) // 2)
            elif size > max(self.max_bytes if floor is None else floor,
                            2 * self._rotated_size):
                self._rotate_locked()

    def _tear_tail_locked(self, size: int) -> None:
        """Simulate a torn write: cut the file back to ``size`` bytes."""
        try:
            self._handle.truncate(size)
        except OSError:
            pass
        # Later appends reopen and land after the tear, exactly what a real
        # crash-then-restart interleaving does.
        self._handle.close()
        self._handle = None

    def _write_failed(self) -> None:
        self.metrics.counter(f"{self.NAME}.write.errors").inc()
        self._degraded_until = time.monotonic() + DEGRADED_COOLDOWN

    def _rotate_locked(self) -> None:
        """Atomically rewrite the file as header + live records."""
        header = {"rec": "header", "schema": self.SCHEMA}
        data = b"".join(map(_encode, [header, *self._live_records()]))
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            os.replace(tmp, self.path)
        except OSError:
            self._write_failed()
            try:
                os.remove(tmp)
            except OSError:
                pass
            return
        self.metrics.counter(f"{self.NAME}.rotations").inc()
        self._rotated_size = len(data)
        self._state = self._fold_lines(data)

    def flush(self) -> None:
        """Force any buffered bytes to disk (drain path)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError:
                    self.metrics.counter(f"{self.NAME}.write.errors").inc()

    def close(self) -> None:
        with self._lock:
            self.flush()
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

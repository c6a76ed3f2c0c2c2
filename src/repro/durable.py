"""One durable log: how a record becomes durable and how a crashed file
is read back (DESIGN.md §18).  Every recovery ledger of the tree is a
:class:`DurableLog`, and the packed level-2 streams share its line frame::

    <key>\\t<json>\\t<crc32 as 8 hex digits>\\n

The CRC covers ``<key>\\t<json>``; ``json.dumps`` escapes control
characters, so neither a tab nor a newline occurs inside the JSON text.
Level 2 puts the originating node in ``<key>``; a log leaves it empty, so
every log line starts with a tab and a line without one was never written
by this module (a pre-framing JSONL file is refused, not guessed at).

The crash rule, stated once: a crash can damage only what the last
``write()`` put down, i.e. the *final* line.  A final line that is not an
intact frame is a **torn tail** — never acknowledged, dropped by
:meth:`DurableLog.replay`, never consumed by :meth:`DurableLog.follow`, cut
off by the next :meth:`DurableLog.append` (so a new record can never glue
onto a fragment), and counted in
``durable_torn_tails_total{log=<file name>}``.  A bad frame anywhere else
is **corruption** and raises: skipping it would silently drop a record
that was acknowledged.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.errors import StorageError
from repro.obs.metrics import get_registry

try:  # POSIX advisory locking; the fabric targets Linux hosts.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "DurableLog",
    "decode_record",
    "encode_record",
    "frame",
    "iter_frames",
    "replace_file",
    "sync_file",
]

_CRC_SUFFIX = re.compile(rb"^[0-9a-f]{8}$")
#: ``json.dumps(value, sort_keys=True)``: the same text, or the same
#: ``TypeError``, from one C encoder bound here where ``dumps`` builds one per
#: call.  ``markers=None`` drops the circular-reference check, so the shared
#: encoder keeps no state across calls or threads; a record is acyclic.
if c_make_encoder is None:  # pragma: no cover - a Python built without _json
    encode_record = partial(json.dumps, sort_keys=True)
else:
    _default = partial(json.JSONEncoder.default, None)  # dumps' TypeError
    _encode = c_make_encoder(
        None, _default, encode_basestring_ascii, None, ": ", ", ", True, False, True
    )
    encode_record = lambda value: "".join(_encode(value, 0))
_scan_once = json.JSONDecoder().scan_once


def decode_record(body: Union[bytes, str]) -> Any:
    """``json.loads(body)``: the same value, or the same ``ValueError``.

    A body that is one bare JSON value, in text or UTF-8 (what ``encode_record``
    writes), is read by the C scanner straight from its text, skipping the
    encoding sniff and the whitespace checks of ``json.loads``.  Anything
    else (surrounding whitespace, a BOM, bad UTF-8, trailing data) goes to
    ``json.loads`` unchanged, which stays the oracle of every outcome.
    """
    try:
        text = body if isinstance(body, str) else body.decode("utf-8")
        value, end = _scan_once(text, 0)
        if end == len(text):
            return value
    except (StopIteration, ValueError):  # UnicodeDecodeError is a ValueError
        pass
    return json.loads(body)


#: Bytes the tail repair reads first; doubled until they hold a whole line.
_TAIL_SPAN = 4096


def frame(key: str, json_text: str) -> bytes:
    """One framed line (without the newline)."""
    head = f"{key}\t{json_text}".encode("utf-8")
    return b"%b\t%08x" % (head, zlib.crc32(head))


def _scan(lines: Iterable[bytes]) -> Iterator[Tuple[int, bytes, bytes, bytes, Optional[str]]]:
    crc32 = zlib.crc32
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        head, _, suffix = line.rpartition(b"\t")
        key, tab, body = head.partition(b"\t")
        # An intact frame's suffix is the one text frame() writes; only a
        # frame failing that is parsed further, to name what is wrong.
        if tab and suffix == b"%08x" % crc32(head):
            reason: Optional[str] = None
        elif not tab or not _CRC_SUFFIX.match(suffix):
            reason = "truncated"
        else:
            reason = "crc_mismatch"
        yield lineno, line, key, body, reason


def iter_frames(path) -> Iterator[Tuple[int, bytes, bytes, bytes, Optional[str]]]:
    """Yield ``(lineno, line, key, json_text, reason)`` per non-blank line;
    *reason* is ``None`` for a whole frame whose CRC holds, else ``truncated``
    (not shaped like a frame) or ``crc_mismatch``.  A missing file is empty."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        yield from _scan(fh)


def _open_rw(path: Path, flags: int = 0) -> int:
    flags |= os.O_RDWR | os.O_CREAT
    try:
        return os.open(path, flags, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o644)


class DurableLog:
    """An append-only file of framed JSON records, one per line."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._cursor = 0  # where follow() reads on; it holds _follow_lock
        self._follow_lock = threading.Lock()

    def append(
        self,
        records: Iterable[Dict[str, Any]],
        sync: bool = True,
        fence: Optional[Callable[[List[Dict[str, Any]]], None]] = None,
    ) -> None:
        """Append *records* with a single ``write()``; with *sync* they are
        on stable storage when this returns.  Appenders exclude each other
        by an ``flock`` on the file, so cutting a torn tail cannot race a
        rival's write.  Under that lock a *fence* is :meth:`follow`'s fold:
        it may raise to refuse the append before anything is written, or
        complete *records*, which are encoded after it ran."""
        records = list(records)
        if not records:
            return
        fd = _open_rw(self.path, os.O_APPEND)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            if fence is not None:
                self.follow(fence)
            data = b"".join(frame("", encode_record(rec)) + b"\n" for rec in records)
            data = self._repair_tail(fd) + data
            if os.write(fd, data) != len(data):
                raise StorageError(f"short write to {self.path}; the record is not durable")
            if sync:
                os.fsync(fd)
        finally:
            os.close(fd)  # releases the flock

    def replay(self) -> Iterator[Dict[str, Any]]:
        """Yield the intact prefix; a bad final frame is a torn tail
        (dropped, counted), a bad frame before it raises."""
        return (record for _end, record in self._read(0))

    def follow(self, fold: Callable[[List[Dict[str, Any]]], Any]) -> Any:
        """Hand *fold* the intact records past this reader's byte cursor,
        in file order, move the cursor past them and return what *fold*
        returns: never past a torn final line, once past an intact one
        lacking its newline.  A file no longer than the cursor is not
        opened.  Corruption raises as in :meth:`replay`.  One reader's
        calls are serialized with their folds: a fold sees every record
        once."""
        with self._follow_lock:
            records = []
            end = self._cursor
            if self.path.exists() and self.path.stat().st_size > end:
                for end, record in self._read(end):
                    records.append(record)
            self._cursor = end
            return fold(records)

    def _read(self, start: int) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """``(end offset, record)`` per intact frame from byte *start* on,
        under the crash rule of :meth:`replay`."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(start)
            end = start

            def lines() -> Iterator[bytes]:
                nonlocal end
                for raw in fh:
                    end += len(raw)
                    yield raw

            torn: Optional[Tuple[int, str]] = None
            for lineno, line, _key, body, reason in _scan(lines()):
                if torn is not None:
                    where = f"line {torn[0]}" + (f" after byte {start}" if start else "")
                    raise StorageError(
                        f"corrupt record in {self.path} ({where}: {torn[1]}); "
                        "only the final line of a log may be torn"
                    )
                if reason is None:
                    try:
                        record = decode_record(body)
                    except ValueError:
                        reason = "bad_json"
                    else:
                        yield end, record
                        continue
                self._require_framed(line)
                torn = (lineno, reason)
        if torn is not None:
            self._count_torn_tail()

    def _require_framed(self, bad_line: bytes) -> None:
        """A damaged log line still has its leading tab; one without any
        was written by something else."""
        if b"\t" not in bad_line:
            raise StorageError(
                f"{self.path} is not a framed log (unframed line {bad_line[:40]!r}); "
                "pre-framing JSONL ledgers are not read"
            )

    def _count_torn_tail(self) -> None:
        get_registry().counter(
            "durable_torn_tails_total",
            "Torn final lines dropped by a log replay or cut by an append",
            labels=("log",),
        ).inc(log=self.path.name)

    def _repair_tail(self, fd: int) -> bytes:
        """Make the file end where a new line may start: cut a torn final
        line, or return the newline an unterminated intact one lacks."""
        size = os.fstat(fd).st_size
        span = _TAIL_SPAN
        while True:
            start = max(0, size - span)
            tail = os.pread(fd, size - start, start)
            last = tail[:-1] if tail.endswith(b"\n") else tail
            cut = last.rfind(b"\n")
            if cut >= 0 or start == 0:
                break
            span *= 2
        for _lineno, line, _key, _body, reason in _scan([last[cut + 1 :]]):
            if reason is not None:
                self._require_framed(line)
                self._count_torn_tail()
                os.ftruncate(fd, start + cut + 1)
                return b""
        return b"" if tail.endswith(b"\n") or not tail else b"\n"


def _sync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def sync_file(path) -> None:
    """Flush a finished file and its directory entry to stable storage."""
    path = Path(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    _sync_dir(path.parent)


def replace_file(path, text: str, sync: bool = True) -> None:
    """Atomically replace *path* with *text*: a reader sees the old file
    or the new one, never a partial write.  With *sync* the new content is
    on stable storage before the rename and the rename itself after it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        if sync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if sync:
        _sync_dir(path.parent)

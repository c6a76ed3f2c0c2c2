"""The level-2 frame reader as it was before each record was parsed once.

Frozen: every line is checked with the suffix regex and ``int(suffix, 16)``,
every node key is decoded per line, and every body goes through
``json.loads(bytes)``.  ``tests/property/test_frame_reader_equivalence.py``
compares ``repro.durable`` and ``repro.storage.level2`` against it.
"""

import io
import json
import re
import zlib

_CRC_SUFFIX = re.compile(rb"^[0-9a-f]{8}$")


def scan(data: bytes):
    """``(lineno, line, key, body, reason)`` per non-blank line of *data*."""
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        head, _, suffix = line.rpartition(b"\t")
        key, tab, body = head.partition(b"\t")
        if not tab or not _CRC_SUFFIX.match(suffix):
            reason = "truncated"
        else:
            reason = None if zlib.crc32(head) == int(suffix, 16) else "crc_mismatch"
        yield lineno, line, key, body, reason


def scan_frames(data: bytes):
    """``({node: [values]}, [(lineno, node, reason, raw text)])`` of a
    packed level-2 file."""
    groups = {}
    bad = []
    for lineno, line, node, body, reason in scan(data):
        if reason is None:
            try:
                values = groups.setdefault(node.decode("utf-8"), [])
                if body:
                    values.append(json.loads(body))
                continue
            except ValueError:
                reason = "bad_json"
        bad.append((lineno, node.decode("utf-8", "replace"), reason,
                    line.decode("utf-8", "backslashreplace")))
    return groups, bad


def replay(data: bytes):
    """``(records, error)`` of a durable log's replay: the records it yields,
    then ``None``, ``("unframed", None)`` or ``("corrupt", (lineno, reason))``
    for the error that ends it."""
    records = []
    torn = None
    for lineno, line, _key, body, reason in scan(data):
        if torn is not None:
            return records, ("corrupt", torn)
        if reason is None:
            try:
                records.append(json.loads(body))
                continue
            except ValueError:
                reason = "bad_json"
        if b"\t" not in line:
            return records, ("unframed", None)
        torn = (lineno, reason)
    return records, None

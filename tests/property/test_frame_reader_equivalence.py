"""The frame readers against the frozen per-line ``json.loads`` reader.

``repro.durable`` checks a frame by comparing its suffix with the text
``frame()`` writes and parses a body with the C scanner when it is one bare
UTF-8 value, handing every other body to ``json.loads``.  For any file —
intact frames, markers, bodies with whitespace, a BOM, bad UTF-8, ``NaN``,
two values or half a value, uppercase or wrong CRCs, torn and unframed
lines — ``Level2Store.read_run_stream`` (strict and salvage) and
``DurableLog.replay`` must give what ``tests/oracles/frame_reference.py``
gives: the same groups and values, the same bad lines, the same errors.
"""

import json
import re
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.durable import DurableLog, encode_record
from repro.storage import level2
from repro.storage.level2 import Level2Store
from tests.oracles import frame_reference as oracle
from tests.property.test_record_block_equivalence import _text, _values

_KEYS = st.sampled_from([b"h1", b"h2", b"master", "nöde".encode("utf-8"), b"", b"\xff"])
_json = st.one_of(st.dictionaries(_text, _values, max_size=4), _values).map(
    lambda value: encode_record(value).encode("ascii"))
_WHITESPACE = [b" ", b"\t", b"\r", b"  ", b"\x0c"]
_ODD = [b"", b"NaN", b"[NaN, -Infinity]", b'{"x": Infinity}', b"1,2", b"1 2", b"[1", b"2]",
        b"\xff", b"\xc3(", b'["a\x80"]', b'"\xed\xa0\x80"', b"\x00", b'"\x00"', b"0\x000\x00",
        b"\xef\xbb\xbf", b"\xef\xbb\xbf{}", b"\xfe\xff\x00[\x00]", b"nul", b"{}"]
_body = st.one_of(
    _json,
    st.tuples(st.sampled_from(_WHITESPACE), _json, st.booleans()).map(
        lambda t: t[0] + t[1] if t[2] else t[1] + t[0]),
    _json.map(lambda text: b"\xef\xbb\xbf" + text),
    st.sampled_from(_ODD),
    st.binary(max_size=6).filter(lambda raw: b"\n" not in raw),
)


def _framed(key: bytes, body: bytes, suffix: str) -> bytes:
    head = key + b"\t" + body
    crc = zlib.crc32(head)
    return {
        "crc": head + b"\t%08x" % crc,
        "upper": head + b"\t%08X" % crc,
        "wrong": head + b"\t%08x" % (crc ^ 1),
        "none": head,
        "short": (head + b"\t%08x" % crc)[:-3],
    }[suffix]


_frame = st.builds(_framed, _KEYS, _body,
                   st.sampled_from(["crc", "crc", "crc", "upper", "wrong", "none", "short"]))
_line = st.one_of(
    _frame,
    _frame,
    st.builds(_framed, _KEYS, st.just(b""), st.just("crc")),  # marker
    # Half a value per frame, and one frame cut by a newline inside it.
    st.just(_framed(b"h1", b"[1", "crc") + b"\n" + _framed(b"h1", b"2]", "crc")),
    st.just(_framed(b"h1", b"[1\n2]", "crc")),
    st.sampled_from([b"", b"\r", b"{}", b"no tab at all"]),
    st.binary(max_size=8).filter(lambda raw: b"\n" not in raw),
)
_files = st.tuples(st.lists(_line, max_size=8), st.sampled_from([b"", b"\n", b"\r\n"])).map(
    lambda t: b"\n".join(t[0]) + t[1])


def _spelled(value):
    """``repr``, so that ``nan`` equals ``nan`` and ``-0.0`` differs from ``0.0``."""
    return repr(value)


def _replayed(path: Path):
    records = []
    try:
        for record in DurableLog(path).replay():
            records.append(record)
    except StorageError as exc:
        return records, str(exc)
    return records, None


@settings(max_examples=400, deadline=None)
@given(data=_files)
@example(data=_framed(b"h1", b'{"a":1}', "crc") + b"\n" + _framed(b"h1", b"", "crc") + b"\n")
@example(data=_framed(b"h1", b"\xef\xbb\xbf[1]", "crc") + b"\n" + _framed(b"h2", b" 1 ", "crc"))
@example(data=_framed(b"\xff", b"[]", "crc") + b"\n" + _framed(b"h1", b"NaN", "upper"))
def test_frame_readers_match_the_per_line_oracle(data):
    groups, bad = oracle.scan_frames(data)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "runs" / "0" / "events.jsonl"
        path.parent.mkdir(parents=True)
        path.write_bytes(data)

        got_groups, got_bad = level2._scan_frames(path)
        assert _spelled(got_groups) == _spelled(groups)
        assert got_bad == bad

        strict = Level2Store(root)
        if bad:
            with pytest.raises(StorageError, match=re.escape(f"line {bad[0][0]}: {bad[0][2]})")):
                strict.read_run_stream(0, "events.jsonl")
        else:
            assert _spelled(strict.read_run_stream(0, "events.jsonl")) == _spelled(groups)

        salvaging = Level2Store(root, salvage=True)
        assert _spelled(salvaging.read_run_stream(0, "events.jsonl")) == _spelled(groups)
        sidecar = root / "quarantine" / "runs" / "0" / "events.jsonl"
        quarantined = [
            (r["line"], r["node"], r["reason"], r["raw"])
            for r in map(json.loads, sidecar.read_text(encoding="utf-8").splitlines())
        ] if sidecar.exists() else []
        assert quarantined == [(lineno, node if node in groups else "*", reason, raw)
                               for lineno, node, reason, raw in bad]

        records, error = oracle.replay(data)
        got_records, got_error = _replayed(path)
        assert _spelled(got_records) == _spelled(records)
        if error is None:
            assert got_error is None
        elif error[0] == "unframed":
            assert "is not a framed log" in got_error
        else:
            assert f"(line {error[1][0]}: {error[1][1]})" in got_error

"""The durable-log primitive, tested once and hard: truncation at every
offset and a bit flip in every byte against an independent oracle, the
torn-tail repair, the follow cursor, the counter, and the whole-file
helpers."""

import json
import os
import sys
import threading
import zlib

import pytest

from repro import durable
from repro.core.errors import StorageError
from repro.durable import DurableLog, frame, replace_file, sync_file
from repro.obs.metrics import MetricsRegistry, set_registry

EXTRA = {"type": "extra", "n": -1}


def _records():
    """Mixed sizes: tiny, nested, non-ASCII, control characters, and one
    several times the span the tail repair reads first (see ``recorded``)."""
    records = [{"type": "start", "seed": 2014}]
    for i in range(17):
        records.append({"t": "run", "id": i, "note": "x" * (i * 7 % 30), "a": [i, None, -0.0]})
    records.append({"type": "text", "s": "tab\tnewline\ncr\r é \U0001f600 \x00"})
    records.append({"type": "big", "blob": "b" * 300})
    records.append({"type": "end"})
    return records


def _oracle(data):
    """Independent reading of the rule: ``(records, fate)`` where *fate* is
    ``ok``, ``torn`` (only the final line is bad) or ``corrupt``."""
    lines = [ln.rstrip(b"\r") for ln in data.split(b"\n")]
    lines = [ln for ln in lines if ln]
    records, bad = [], []
    for index, line in enumerate(lines):
        parts = line.split(b"\t")
        try:
            if len(parts) != 3 or len(parts[2]) != 8:
                raise ValueError(line)
            crc = int(parts[2], 16)
            if parts[2] != b"%08x" % crc or zlib.crc32(parts[0] + b"\t" + parts[1]) != crc:
                raise ValueError(line)
            records.append(json.loads(parts[1]))
        except ValueError:
            bad.append(index)
    if not bad:
        return records, "ok"
    return records, "torn" if bad == [len(lines) - 1] else "corrupt"


@pytest.fixture()
def recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(durable, "_TAIL_SPAN", 64)  # most lines need a second look
    log = DurableLog(tmp_path / "log.jsonl")
    records = _records()
    log.append(records[:1])
    log.append(records[1:10], sync=False)  # a batch
    for rec in records[10:]:
        log.append([rec], sync=False)
    pristine = log.path.read_bytes()
    assert len(records) >= 20 and pristine.count(b"\n") == len(records)
    assert list(log.replay()) == records
    return log, records, pristine


def test_truncation_at_every_offset_then_append(recorded):
    log, records, pristine = recorded
    ends = [i + 1 for i, byte in enumerate(pristine) if byte == 0x0A]
    for cut in range(len(pristine) + 1):
        log.path.write_bytes(pristine[:cut])
        # A frame whose last byte made it is whole, newline or not.
        whole = sum(1 for end in ends if end - 1 <= cut)
        kept, fate = _oracle(pristine[:cut])
        assert fate in ("ok", "torn") and kept == records[:whole]
        assert list(log.replay()) == kept
        log.append([EXTRA], sync=False)
        assert list(log.replay()) == kept + [EXTRA], f"cut at {cut}"
        assert log.path.read_bytes().count(b"\n") == len(kept) + 1


def test_bit_flip_in_every_byte(recorded):
    log, records, pristine = recorded
    starts = [0] + [i + 1 for i, byte in enumerate(pristine) if byte == 0x0A]
    for offset in range(len(pristine)):
        damaged = bytearray(pristine)
        damaged[offset] ^= 1 << (offset % 8)
        log.path.write_bytes(bytes(damaged))
        kept, fate = _oracle(bytes(damaged))
        assert fate != "ok", f"flip at {offset} went unnoticed by the oracle"
        if fate == "corrupt":
            with pytest.raises(StorageError, match="corrupt record"):
                list(log.replay())
        else:
            # Never a record altered, never a hole: a prefix, short by the
            # last frame (or the last two, when their separator was hit).
            assert list(log.replay()) == kept
            assert kept == records[: len(kept)] and len(kept) >= len(records) - 2
        if offset < starts[-3] - 1:
            assert fate == "corrupt", f"flip at {offset} is before the last two frames"


def test_append_is_one_write_and_one_fsync(tmp_path, monkeypatch):
    calls = []
    real_write, real_fsync = os.write, os.fsync
    monkeypatch.setattr(os, "write", lambda fd, data: calls.append("write") or real_write(fd, data))
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or real_fsync(fd))
    log = DurableLog(tmp_path / "deep" / "er" / "log.jsonl")
    log.append({"n": i} for i in range(50))
    assert calls == ["write", "fsync"]
    log.append([{"n": 50}], sync=False)
    assert calls == ["write", "fsync", "write"]
    log.append([])
    assert calls == ["write", "fsync", "write"]
    assert [rec["n"] for rec in log.replay()] == list(range(51))


def test_empty_append_creates_nothing_and_missing_log_is_empty(tmp_path):
    log = DurableLog(tmp_path / "log.jsonl")
    log.append([])
    assert not log.path.exists()
    assert list(log.replay()) == []


def test_unterminated_intact_frame_is_kept_and_completed(tmp_path):
    log = DurableLog(tmp_path / "log.jsonl")
    log.append([{"n": 0}, {"n": 1}])
    log.path.write_bytes(log.path.read_bytes()[:-1])  # the cut took only the newline
    assert [rec["n"] for rec in log.replay()] == [0, 1]
    log.append([{"n": 2}])
    assert [rec["n"] for rec in log.replay()] == [0, 1, 2]
    assert log.path.read_bytes().count(b"\n") == 3


def test_torn_tails_are_counted_per_log(tmp_path):
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        log = DurableLog(tmp_path / "campaign.jsonl")
        log.append([{"n": 0}, {"n": 1}])
        assert registry.snapshot() == {}
        log.path.write_bytes(log.path.read_bytes()[:-10])
        assert list(log.replay()) == [{"n": 0}]
        counter = registry.counter("durable_torn_tails_total", labels=("log",))
        assert counter.value(log="campaign.jsonl") == 1
        log.append([{"n": 2}])  # the repair cuts (and counts) the fragment
        assert counter.value(log="campaign.jsonl") == 2
        assert list(log.replay()) == [{"n": 0}, {"n": 2}]
        assert counter.value(log="campaign.jsonl") == 2
    finally:
        set_registry(None)


@pytest.mark.parametrize("lines", [1, 3])
def test_pre_framing_jsonl_is_refused_not_truncated(tmp_path, lines):
    path = tmp_path / "leases.jsonl"
    legacy = "".join(json.dumps({"op": "epoch", "epoch": i}) + "\n" for i in range(lines))
    path.write_text(legacy, encoding="utf-8")
    log = DurableLog(path)
    with pytest.raises(StorageError, match="not a framed log"):
        list(log.replay())
    with pytest.raises(StorageError, match="not a framed log"):
        log.append([{"op": "epoch", "epoch": 9}])
    assert path.read_text(encoding="utf-8") == legacy


def test_valid_crc_over_bad_json_is_corruption(tmp_path):
    log = DurableLog(tmp_path / "log.jsonl")
    log.append([{"n": 0}])
    with open(log.path, "ab") as fh:
        fh.write(frame("", "{not json") + b"\n")
    assert list(log.replay()) == [{"n": 0}]  # final line: dropped
    with open(log.path, "ab") as fh:
        fh.write(frame("", '{"n": 1}') + b"\n")
    with pytest.raises(StorageError, match="line 2: bad_json"):
        list(log.replay())


def test_concurrent_appenders_lose_nothing(tmp_path):
    """More writers than cores, each its own handle on one file, starting
    from a torn tail every one of them wants to cut."""
    path = tmp_path / "log.jsonl"
    DurableLog(path).append([{"w": -1, "n": 0}, {"w": -1, "n": 1}])
    path.write_bytes(path.read_bytes()[:-7])

    def writer(w):
        log = DurableLog(path)
        for n in range(40):
            log.append([{"w": w, "n": n}], sync=False)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    records = list(DurableLog(path).replay())
    assert records[0] == {"w": -1, "n": 0} and len(records) == 1 + 6 * 40
    for w in range(6):
        assert [rec["n"] for rec in records if rec["w"] == w] == list(range(40))


def test_follow_never_consumes_a_torn_tail_and_reads_what_replaces_it(tmp_path):
    log, seen = DurableLog(tmp_path / "log.jsonl"), []
    log.append([{"n": 0}, {"n": 1}])
    log.follow(seen.extend)
    assert seen == [{"n": 0}, {"n": 1}]
    log.append([{"n": 2}])
    log.path.write_bytes(log.path.read_bytes()[:-10])  # the crash tore record 2
    log.follow(seen.extend)
    log.follow(seen.extend)
    assert seen == [{"n": 0}, {"n": 1}]
    DurableLog(log.path).append([{"n": 3}])  # another writer cuts the fragment
    log.follow(seen.extend)
    assert seen == [{"n": 0}, {"n": 1}, {"n": 3}]


def test_follow_reads_an_unterminated_intact_line_once(tmp_path):
    log, seen = DurableLog(tmp_path / "log.jsonl"), []
    log.append([{"n": 0}, {"n": 1}])
    log.path.write_bytes(log.path.read_bytes()[:-1])  # the cut took only the newline
    log.follow(seen.extend)
    assert seen == [{"n": 0}, {"n": 1}]
    log.append([{"n": 2}])
    log.follow(seen.extend)
    assert seen == [{"n": 0}, {"n": 1}, {"n": 2}]
    assert log.path.read_bytes().count(b"\n") == 3


def test_follow_refuses_damage_before_the_tail(tmp_path):
    log, seen = DurableLog(tmp_path / "log.jsonl"), []
    log.append([{"n": 0}])
    log.follow(seen.extend)
    log.append([{"n": 1}, {"n": 2}])
    data = bytearray(log.path.read_bytes())
    data[data.index(b'"n": 1') + 5] ^= 0x01
    log.path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="corrupt record .*line 1 after byte"):
        log.follow(seen.extend)
    with pytest.raises(StorageError, match="corrupt record .*line 2:"):
        list(log.replay())
    assert seen == [{"n": 0}]


def test_follow_decodes_only_the_records_past_its_cursor(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    writer, reader, seen = DurableLog(path), DurableLog(path), []
    writer.append([{"n": i} for i in range(100)])
    reader.follow(seen.extend)
    decoded = []
    real_decode = durable.decode_record
    monkeypatch.setattr(
        durable, "decode_record", lambda body: decoded.append(body) or real_decode(body)
    )
    writer.append([{"n": 100}, {"n": 101}])
    reader.follow(seen.extend)
    assert len(decoded) == 2 and seen[100:] == [{"n": 100}, {"n": 101}]
    reader.follow(seen.extend)  # nothing new: nothing decoded
    assert len(decoded) == 2 and len(seen) == 102
    assert [rec["n"] for rec in reader.replay()] == list(range(102))


def test_replace_file_is_atomic_and_synced(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
    path = tmp_path / "scope.json"
    replace_file(path, "one")
    assert path.read_text(encoding="utf-8") == "one" and len(synced) == 2  # file + directory
    replace_file(path, "two", sync=False)
    assert path.read_text(encoding="utf-8") == "two" and len(synced) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scope.json"]
    sync_file(path)
    assert len(synced) == 4
    with pytest.raises(FileNotFoundError):
        sync_file(tmp_path / "missing.db")


def test_level2_shares_the_one_frame_codec():
    from repro.storage import level2

    assert level2.frame is durable.frame and level2.iter_frames is durable.iter_frames
    assert not hasattr(level2, "zlib")

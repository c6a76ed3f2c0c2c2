"""Unit tests for the packet model."""

from repro.net.packet import (
    BROADCAST_ADDR,
    MULTICAST_SD_GROUP,
    Packet,
    is_broadcast,
    is_multicast,
)


def _pkt(**kw):
    defaults = dict(
        src_addr="10.0.0.1", dst_addr="10.0.0.2", src_port=1, dst_port=2,
        payload={"x": 1},
    )
    defaults.update(kw)
    return Packet(**defaults)


def test_uids_are_unique_and_increasing():
    a, b = _pkt(), _pkt()
    assert a.uid < b.uid


def test_copy_keeps_uid_but_not_options_identity():
    p = _pkt()
    p.options["k"] = 1
    c = p.copy()
    assert c.uid == p.uid
    c.options["k"] = 2
    assert p.options["k"] == 1


def test_copy_with_overrides():
    p = _pkt()
    c = p.copy(dst_addr="10.0.0.9")
    assert c.dst_addr == "10.0.0.9" and c.src_addr == p.src_addr


def test_forwarded_decrements_ttl():
    p = _pkt(ttl=3)
    f = p.forwarded()
    assert f.ttl == 2 and p.ttl == 3
    assert f.uid == p.uid


def test_expired():
    assert _pkt(ttl=0).expired
    assert not _pkt(ttl=1).expired


def test_multicast_and_broadcast_predicates():
    assert is_multicast(MULTICAST_SD_GROUP)
    assert not is_multicast("10.0.0.1")
    assert is_broadcast(BROADCAST_ADDR)
    assert not is_broadcast(MULTICAST_SD_GROUP)


def test_describe_is_flat_and_complete():
    p = _pkt(flow="generated-load")
    d = p.describe()
    assert d["src"] == "10.0.0.1" and d["dst"] == "10.0.0.2"
    assert d["flow"] == "generated-load"
    assert d["uid"] == p.uid
    assert d["payload"] == {"x": 1}
    # options copied, not aliased
    d["options"]["new"] = 1
    assert "new" not in p.options

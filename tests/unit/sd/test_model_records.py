"""Unit tests for the SD domain model and TTL caches."""

import pytest

from repro.sd.model import Role, ServiceInstance, instance_name
from repro.sd.records import ServiceCache


def _inst(name="p1._t", type_="_t", provider="p1", ttl=10.0, version=1):
    return ServiceInstance(
        name=name, service_type=type_, provider_node=provider,
        address="10.0.0.1", ttl=ttl, version=version,
    )


# ----------------------------------------------------------------------
# Model
# ----------------------------------------------------------------------
def test_role_parse():
    assert Role.parse("su") is Role.SU
    assert Role.parse(" SCM ") is Role.SCM
    assert Role.parse("su+sm") is Role.SU_SM
    assert Role.parse("") is Role.SU
    with pytest.raises(ValueError):
        Role.parse("king")


def test_role_predicates():
    assert Role.SM.is_manager and Role.SU_SM.is_manager
    assert not any(role.is_manager for role in (Role.SU, Role.SCM, Role.BROKER))


def test_instance_name_convention():
    assert instance_name("_http._tcp", "host7") == "host7._http._tcp"


def test_wire_roundtrip():
    inst = _inst()
    again = ServiceInstance.from_wire(inst.as_wire())
    assert again == inst


def test_bumped_increments_version():
    inst = _inst(version=3)
    assert inst.bumped().version == 4
    assert inst.version == 3


def test_event_params_pair():
    assert _inst().event_params() == ("p1._t", "p1")


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_cache_add_new_vs_update():
    cache = ServiceCache()
    is_new, is_upd = cache.add(_inst(), now=0.0)
    assert is_new and not is_upd
    is_new, is_upd = cache.add(_inst(), now=1.0)  # refresh, same version
    assert not is_new and not is_upd
    is_new, is_upd = cache.add(_inst(version=2), now=2.0)
    assert not is_new and is_upd


def test_cache_expiry():
    cache = ServiceCache()
    cache.add(_inst(ttl=5.0), now=0.0)
    assert cache.purge_expired(now=4.9) == []
    gone = cache.purge_expired(now=5.0)
    assert [g.name for g in gone] == ["p1._t"]
    assert len(cache) == 0


def test_cache_refresh_extends_lifetime():
    cache = ServiceCache()
    cache.add(_inst(ttl=5.0), now=0.0)
    cache.add(_inst(ttl=5.0), now=4.0)
    assert cache.purge_expired(now=6.0) == []
    assert cache.purge_expired(now=9.0) != []


def test_fresh_fraction():
    cache = ServiceCache()
    cache.add(_inst(ttl=10.0), now=0.0)
    entry = cache.get("_t", "p1._t")
    assert entry.fresh_fraction(0.0) == pytest.approx(1.0)
    assert entry.fresh_fraction(5.0) == pytest.approx(0.5)
    assert entry.fresh_fraction(20.0) == 0.0


def test_entries_for_type_sorted():
    cache = ServiceCache()
    cache.add(_inst(name="b._t", provider="b"), now=0.0)
    cache.add(_inst(name="a._t", provider="a"), now=0.0)
    cache.add(_inst(name="x._other", type_="_other", provider="x"), now=0.0)
    names = [e.instance.name for e in cache.entries_for_type("_t")]
    assert names == ["a._t", "b._t"]


def test_remove():
    cache = ServiceCache()
    cache.add(_inst(), now=0.0)
    gone = cache.remove("_t", "p1._t")
    assert gone is not None and len(cache) == 0
    assert cache.remove("_t", "p1._t") is None


def test_next_expiry():
    cache = ServiceCache()
    assert cache.purge_expired(now=100.0) == []
    cache.add(_inst(name="a._t", provider="a", ttl=5.0), now=0.0)
    cache.add(_inst(name="b._t", provider="b", ttl=2.0), now=0.0)
    assert cache.purge_expired(now=1.9) == []
    assert [inst.name for inst in cache.purge_expired(now=2.0)] == ["b._t"]
    assert len(cache) == 1


def test_clear():
    cache = ServiceCache()
    cache.add(_inst(), now=0.0)
    cache.clear()
    assert len(cache) == 0

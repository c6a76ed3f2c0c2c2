"""Unit tests for factors, levels and replication."""

import pytest

from repro.core.errors import DescriptionError
from repro.core.factors import (
    Factor,
    FactorList,
    Level,
    ReplicationFactor,
    Usage,
    coerce_value,
)


def _factor(fid="f", type="int", usage=Usage.CONSTANT, values=(1, 2)):
    return Factor(id=fid, type=type, usage=usage, levels=[Level(v) for v in values])


def test_usage_parse():
    assert Usage.parse("random") is Usage.RANDOM
    assert Usage.parse(" Blocking ") is Usage.BLOCKING
    with pytest.raises(DescriptionError):
        Usage.parse("bogus")


@pytest.mark.parametrize(
    "type_name,raw,expected",
    [
        ("int", "5", 5),
        ("int", '"5"', 5),
        ("float", "2.5", 2.5),
        ("str", '"hello"', "hello"),
        ("bool", "true", True),
        ("bool", "0", False),
        ("bool", True, True),
    ],
)
def test_coerce_scalars(type_name, raw, expected):
    assert coerce_value(type_name, raw) == expected


def test_coerce_actor_map():
    raw = {"actor0": {"0": "A", 1: "B"}}
    out = coerce_value("actor_node_map", raw)
    assert out == {"actor0": {"0": "A", "1": "B"}}


def test_coerce_errors():
    with pytest.raises(DescriptionError):
        coerce_value("int", "not-a-number")
    with pytest.raises(DescriptionError):
        coerce_value("actor_node_map", "string")
    with pytest.raises(DescriptionError):
        coerce_value("nosuch", "1")


def test_factor_validates_type():
    with pytest.raises(DescriptionError):
        Factor(id="f", type="weird", usage=Usage.CONSTANT)
    with pytest.raises(DescriptionError):
        Factor(id="", type="int", usage=Usage.CONSTANT)


def test_factor_is_constant():
    assert _factor(values=(1,)).is_constant()
    assert not _factor(values=(1, 2)).is_constant()


def test_replication_validation():
    assert ReplicationFactor(count=1).count == 1
    with pytest.raises(DescriptionError):
        ReplicationFactor(count=0)


def test_factorlist_counts():
    fl = FactorList(
        [_factor("a", values=(1, 2)), _factor("b", values=(1, 2, 3))],
        ReplicationFactor(count=4),
    )
    assert fl.treatment_count() == 6
    assert fl.total_runs() == 24
    assert len(fl) == 2


def test_factorlist_duplicate_id_rejected():
    fl = FactorList([_factor("a")])
    with pytest.raises(DescriptionError):
        fl.add(_factor("a"))


def test_factorlist_id_clash_with_replication():
    fl = FactorList(replication=ReplicationFactor(id="rep", count=2))
    with pytest.raises(DescriptionError):
        fl.add(_factor("rep"))


def test_factorlist_empty_levels_rejected():
    fl = FactorList()
    with pytest.raises(DescriptionError):
        fl.add(Factor(id="e", type="int", usage=Usage.CONSTANT, levels=[]))


def test_factorlist_lookup_and_contains():
    fl = FactorList([_factor("a")])
    assert fl.get("a").id == "a"
    assert "a" in fl and fl.replication.id in fl
    with pytest.raises(DescriptionError):
        fl.get("missing")


def test_actor_map_factor_uniqueness():
    amap = Factor(
        id="m", type="actor_node_map", usage=Usage.BLOCKING,
        levels=[Level({"actor0": {"0": "A"}})],
    )
    fl = FactorList([amap, _factor("other")])
    assert fl.actor_map_factor() is amap

    amap2 = Factor(
        id="m2", type="actor_node_map", usage=Usage.BLOCKING,
        levels=[Level({"actor0": {"0": "A"}})],
    )
    fl.add(amap2)
    with pytest.raises(DescriptionError):
        fl.actor_map_factor()


def test_actor_map_factor_absent():
    assert FactorList([_factor("x")]).actor_map_factor() is None

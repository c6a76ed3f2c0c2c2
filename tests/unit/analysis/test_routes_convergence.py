"""Unit tests for route reconstruction and replication convergence."""

import pytest

from repro.analysis.convergence import (
    replications_to_converge,
    running_responsiveness,
)
from repro.analysis.routes import (
    forwarding_matrix,
    packet_routes,
    path_statistics,
    route_of,
)
from repro.sd.metrics import RunDiscovery


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def _obs(uid, node, direction, t, flow="experiment"):
    return {
        "uid": uid, "node": node, "direction": direction,
        "common_time": t, "flow": flow,
    }


def _two_hop_packet(uid=1, t0=0.0):
    """a --tx--> b (rx, tx) --> c (rx)."""
    return [
        _obs(uid, "a", "tx", t0),
        _obs(uid, "b", "rx", t0 + 0.01),
        _obs(uid, "b", "tx", t0 + 0.011),
        _obs(uid, "c", "rx", t0 + 0.02),
    ]


def test_packet_routes_ordered():
    routes = packet_routes(reversed(_two_hop_packet()))
    assert [n for _t, n, _d in routes[1]] == ["a", "b", "b", "c"]


def test_route_of_deduplicates():
    assert route_of(_two_hop_packet(), 1) == ["a", "b", "c"]


def test_route_of_unknown_uid():
    assert route_of(_two_hop_packet(), 99) == []


def test_flow_filter():
    packets = _two_hop_packet() + [_obs(2, "a", "tx", 1.0, flow="generated-load")]
    routes = packet_routes(packets, flow="experiment")
    assert set(routes) == {1}
    routes_all = packet_routes(packets, flow=None)
    assert set(routes_all) == {1, 2}


def test_path_statistics():
    packets = (
        _two_hop_packet(uid=1)
        + _two_hop_packet(uid=2, t0=1.0)
        + [_obs(3, "a", "tx", 2.0)]  # stranded: never seen elsewhere
    )
    stats = path_statistics(packets)
    assert stats["tracked_packets"] == 3
    assert stats["stranded"] == 1
    assert stats["hop_count_distribution"] == {2: 2}


def test_forwarding_matrix():
    matrix = forwarding_matrix(_two_hop_packet())
    assert matrix == {("a", "b"): 1, ("b", "c"): 1}


def test_routes_from_real_experiment(tmp_path):
    from repro.platforms.simulated import PlatformConfig
    from repro.sd.processlib import build_two_party_description
    from repro.storage.conditioning import condition_run

    from tests.conftest import execute_run

    # A line forces multi-hop forwarding between SM and SU.
    desc = build_two_party_description(replications=1, seed=71, env_count=2)
    config = PlatformConfig(topology="line")
    result = execute_run(desc, tmp_path / "line", config=config)
    run = condition_run(result.store, 0)
    stats = path_statistics(run.packets)
    assert stats["tracked_packets"] > 0
    # On a 4-node line some experiment packets must have crossed >1 hop.
    assert any(h > 1 for h in stats["hop_count_distribution"])
    matrix = forwarding_matrix(run.packets)
    assert matrix  # links carried traffic


# ----------------------------------------------------------------------
# Convergence
# ----------------------------------------------------------------------
def _outcome(run_id, t_r):
    found = {"sm": t_r} if t_r is not None else {}
    return RunDiscovery(
        run_id=run_id, su_node="su", search_started=0.0,
        found_at=found, required={"sm"},
    )


def test_running_responsiveness_series():
    outcomes = [_outcome(i, 0.1 if i % 2 == 0 else None) for i in range(4)]
    series = running_responsiveness(outcomes, deadline=1.0)
    assert [p["p"] for p in series] == [1.0, 0.5, 2 / 3, 0.5]
    assert all(p["ci_low"] <= p["p"] <= p["ci_high"] for p in series)


def test_replications_to_converge_settles():
    # 2 misses early, then 18 hits: the estimate climbs to 0.9 and the
    # last excursion outside ±0.1 determines the settle point.
    outcomes = [_outcome(i, None) for i in range(2)]
    outcomes += [_outcome(i + 2, 0.1) for i in range(18)]
    n = replications_to_converge(outcomes, deadline=1.0, tolerance=0.1)
    assert n is not None
    series = running_responsiveness(outcomes, 1.0)
    final = series[-1]["p"]
    assert all(abs(p["p"] - final) <= 0.1 for p in series[n - 1:])


def test_replications_to_converge_never_settles():
    # Alternating hit/miss keeps oscillating around 0.5 by ±~0.08 at the
    # end; an extremely tight tolerance never holds from early on.
    outcomes = [_outcome(i, 0.1 if i % 2 == 0 else None) for i in range(10)]
    assert replications_to_converge(outcomes, 1.0, tolerance=0.001) in (None, 10)


def test_convergence_empty_rejected():
    with pytest.raises(ValueError):
        replications_to_converge([], 1.0)

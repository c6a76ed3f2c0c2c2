"""Hop-by-hop packet route reconstruction.

Platform requirement IV-A3: *"a packet tracking mechanism is required.
Usually available in simulators, in testbeds this means tracking the
routes of packets hop by hop, or attaching unique identifiers to
packets."*  Our packets keep their ``uid`` across forwarding hops, so the
union of all nodes' captures reconstructs each packet's observed path:
the ordered (by common time) sequence of nodes that transmitted or
received it.

Functions operate on conditioned packet records (level-3 reader output),
which carry the common time base needed to order cross-node observations.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["packet_routes", "route_of", "path_statistics", "forwarding_matrix"]


def packet_routes(
    packets: Iterable[Dict[str, Any]],
    flow: Optional[str] = "experiment",
) -> Dict[int, List[Tuple[float, str, str]]]:
    """``{uid: [(common_time, node, direction), ...]}``, time-ordered.

    One entry per observation — a packet forwarded over k hops appears as
    an alternating rx/tx sequence across the intermediate nodes.
    """
    routes: Dict[int, List[Tuple[float, str, str]]] = {}
    for rec in packets:
        if flow is not None and rec.get("flow") != flow:
            continue
        uid = rec.get("uid")
        if uid is None:
            continue
        t = rec.get("common_time", rec.get("local_time"))
        routes.setdefault(int(uid), []).append(
            (float(t), rec.get("node", "?"), rec.get("direction", "?"))
        )
    for observations in routes.values():
        observations.sort()
    return routes


def route_of(packets: Iterable[Dict[str, Any]], uid: int) -> List[str]:
    """The node path one packet took (deduplicated, observation order)."""
    routes = packet_routes(packets, flow=None)
    observations = routes.get(uid, [])
    path: List[str] = []
    for _t, node, _direction in observations:
        if not path or path[-1] != node:
            path.append(node)
    return path


def path_statistics(packets: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate route statistics over all tracked experiment packets.

    Returns observed hop-count distribution (number of distinct nodes a
    packet touched minus one) and the count of packets seen by only their
    originator (never delivered anywhere — lost on the first hop).
    """
    routes = packet_routes(packets, flow="experiment")
    hop_counts: Counter = Counter()
    stranded = 0
    for uid, observations in routes.items():
        nodes = []
        for _t, node, _d in observations:
            if node not in nodes:
                nodes.append(node)
        if len(nodes) <= 1:
            stranded += 1
        else:
            hop_counts[len(nodes) - 1] += 1
    return {
        "tracked_packets": len(routes),
        "stranded": stranded,
        "hop_count_distribution": dict(sorted(hop_counts.items())),
    }


def forwarding_matrix(packets: Iterable[Dict[str, Any]]) -> Dict[Tuple[str, str], int]:
    """``{(node_a, node_b): packets}`` for consecutive observations —
    which links actually carried the experiment's traffic."""
    matrix: Counter = Counter()
    for observations in packet_routes(packets, flow="experiment").values():
        previous = None
        for _t, node, _d in observations:
            if previous is not None and previous != node:
                matrix[(previous, node)] += 1
            previous = node
    return dict(matrix)

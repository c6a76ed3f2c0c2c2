"""Topology measurement (Sec. IV-B4).

*"To improve repeatability, a rudimentary description of the network
topology is measured as hop count between the participating nodes.  This
measurement is done before and after executing an experiment."*

The paper's prototype traceroutes between nodes; here the platform exposes
its connectivity and we compute hop counts from it.  The *advanced
topology recording* the paper anticipates for future versions is also
implemented: a full adjacency snapshot with link-quality attributes.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["measure_hop_counts", "snapshot_topology", "compare_snapshots"]


def measure_hop_counts(topology, node_names: List[str]) -> Dict[str, Any]:
    """Hop counts between all ordered pairs of *node_names*.

    Returns ``{"names": [...], "hops": [[...]]}``: names ascending, and
    ``hops[i][j]`` the hop count from ``names[i]`` to ``names[j]`` (0 on
    the diagonal, ``None`` when unreachable).
    """
    names = sorted(node_names)
    return {"names": names, "hops": topology.hop_rows(names)}


def snapshot_topology(topology) -> Dict[str, Any]:
    """Full adjacency snapshot (the paper's anticipated advanced recording).

    Returns nodes, edges and per-edge quality attributes in a
    serialization-friendly structure.  An edge's ``a`` is its endpoint
    earlier in node order (:meth:`~repro.net.topology.Topology.edges`);
    the list is sorted by ``(a, b)``.
    """
    edges = [
        {"a": a, "b": b, "base_loss": base_loss, "base_delay": base_delay}
        for a, b, (base_loss, base_delay) in sorted(topology.edges())
    ]
    return {"nodes": list(topology.node_names), "edges": edges}


def compare_snapshots(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Diff two snapshots — did the mesh change under the experiment?

    A non-empty diff flags the run series for careful interpretation
    (uncontrollable nuisance factor recorded, per Sec. II-A1).
    """
    b_edges = {(e["a"], e["b"]) for e in before["edges"]}
    a_edges = {(e["a"], e["b"]) for e in after["edges"]}
    return {
        "nodes_added": sorted(set(after["nodes"]) - set(before["nodes"])),
        "nodes_removed": sorted(set(before["nodes"]) - set(after["nodes"])),
        "links_added": sorted(a_edges - b_edges),
        "links_removed": sorted(b_edges - a_edges),
        "stable": b_edges == a_edges and set(before["nodes"]) == set(after["nodes"]),
    }

"""The testbed frame: the part of a platform the description alone decides.

The paper sets a testbed up once and runs a series over it, measuring the
topology before and after (Sec. IV-B4); a campaign builds a platform per
run.  What is a pure function of the description is built once per process
and shared: ``topology`` (frozen — every route row is built before the
frame is published and mutation raises, so runs and threads only read it),
``measurement_json`` (the level-2 text of ``{"hop_counts", "snapshot"}``,
encoded once) and the ``Topology.version`` it was measured at.  Kernel,
RNG streams, channel, medium, nodes and agents stay per run (DESIGN.md §8).
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import PlatformError
from repro.core.topomeasure import measure_hop_counts, snapshot_topology
from repro.net import topology as net_topology
from repro.obs.metrics import get_registry
from repro.storage.level2 import encode_json

__all__ = ["TestbedFrame", "frame_for", "measure_frame"]


class TestbedFrame(NamedTuple):
    topology: net_topology.Topology
    measurement_json: str
    version: int


def measure_frame(topology: net_topology.Topology, names: Sequence[str]) -> TestbedFrame:
    """Measure *topology* between *names* as it is now (Sec. IV-B4)."""
    hop_counts = measure_hop_counts(topology, names)
    measurement = {"hop_counts": hop_counts, "snapshot": snapshot_topology(topology)}
    return TestbedFrame(topology, encode_json(measurement), topology.version)


_lock = threading.Lock()
_memo: Optional[Tuple[tuple, TestbedFrame]] = None


def frame_for(
    node_ids: Sequence[str], spec: str, mesh_radius: float, base_loss: float, seed: int
) -> TestbedFrame:
    """The frame of the string topology *spec* over *node_ids*: one entry per
    process, keyed by every input of the build.  A description's first run
    builds it (under the lock: threads arriving cold build once), later runs
    reuse it, another description evicts it."""
    global _memo
    key = (tuple(node_ids), spec, mesh_radius, base_loss, seed)
    with _lock:
        reused = _memo is not None and _memo[0] == key
        if not reused:
            _memo = (key, measure_frame(_build_topology(*key).freeze(), node_ids))
        frame = _memo[1]
    get_registry().counter(
        "repro_testbed_frames_total", "Platforms set up over a testbed frame", labels=("outcome",)
    ).inc(outcome="reused" if reused else "built")
    return frame


def _build_topology(node_ids, spec, mesh_radius, base_loss, seed) -> net_topology.Topology:
    import networkx as nx

    n = len(node_ids)
    if spec == "grid":
        cols = max(1, math.ceil(math.sqrt(n)))
        built = net_topology.grid_topology(math.ceil(n / cols), cols, base_loss=base_loss)
    elif spec == "line":
        built = net_topology.line_topology(n, base_loss=base_loss)
    elif spec == "full":
        built = net_topology.full_mesh_topology(n, base_loss=base_loss)
    elif spec == "mesh":
        built = net_topology.random_geometric_topology(
            n, radius=mesh_radius, seed=seed, base_loss=base_loss
        )
    else:
        raise PlatformError(f"unknown topology spec {spec!r}")
    # Sorted generated names map to sorted platform ids, deterministically.
    generated = sorted(built.graph.nodes, key=lambda s: int(s.lstrip("n")))
    built.graph.remove_nodes_from(generated[n:])
    graph = nx.relabel_nodes(built.graph, dict(zip(generated, sorted(node_ids))))
    if not nx.is_connected(graph):
        raise PlatformError(
            "topology became disconnected after sizing; pick another shape or radius"
        )
    return net_topology.Topology(graph)

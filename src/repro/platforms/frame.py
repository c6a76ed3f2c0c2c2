"""The testbed frame: the part of a platform the description alone decides.

The paper sets a testbed up once and runs a series over it, measuring the
topology before and after (Sec. IV-B4); a campaign builds a platform per
run.  What is a pure function of the description is built once per process
and shared: ``topology`` (nothing changes a topology once built, and its
ring table is built before the frame is published, so runs and threads
only read it) and ``measurement_json`` (the level-2 text of
``{"hop_counts", "snapshot"}``, encoded once).  Kernel, RNG streams,
channel, medium, nodes and agents stay per run (DESIGN.md §8).
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


def measure_frame(topology: net_topology.Topology, names: Sequence[str]) -> TestbedFrame:
    """Measure *topology* between *names* (Sec. IV-B4).  The hop counts
    build the whole ring table, so the frame is published warm."""
    hop_counts = measure_hop_counts(topology, names)
    measurement = {"hop_counts": hop_counts, "snapshot": snapshot_topology(topology)}
    return TestbedFrame(topology, encode_json(measurement))


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
            _memo = (key, measure_frame(_build_topology(*key), node_ids))
        frame = _memo[1]
    get_registry().counter(
        "repro_testbed_frames_total", "Platforms set up over a testbed frame", labels=("outcome",)
    ).inc(outcome="reused" if reused else "built")
    return frame


def _build_topology(node_ids, spec, mesh_radius, base_loss, seed) -> net_topology.Topology:
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
    # Sorted generated names map to sorted platform ids, deterministically;
    # generated nodes past the platform's size go with their links.
    generated = sorted(built.adj, key=lambda s: int(s.lstrip("n")))
    topology = built.relabel(dict(zip(generated, sorted(node_ids))))
    if not topology.is_connected():
        raise PlatformError(
            "topology became disconnected after sizing; pick another shape or radius"
        )
    return topology

"""The platform contract (Sec. IV-A).

*"To integrate a specific target platform in ExCovery, it must support
several features ... mainly an issue for testbeds, simulators generally
can be integrated with less effort."*

The three requirement groups, and how the contract encodes them:

1. **Experiment management** (IV-A1) — ``channel`` is the separate,
   reliable control network with full access to every node's
   :class:`~repro.core.nodemanager.NodeManager`.
2. **Connection control** (IV-A2) — every node's interface supports
   activation/deactivation and rule-based packet manipulation (checked by
   :meth:`Platform.capabilities`).
3. **Measurement** (IV-A3) — packet capture with local timestamps, packet
   tagging, time synchronization support (the ``ping`` RPC) and
   quantifiable sync error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.errors import PlatformError
from repro.platforms.frame import TestbedFrame, measure_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nodemanager import NodeManager
    from repro.core.rpc import ControlChannel
    from repro.net.topology import Topology
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

__all__ = ["Platform", "PlatformCapabilities"]


@dataclass(frozen=True)
class PlatformCapabilities:
    """Feature self-description, checked before an experiment starts."""

    management_channel: bool
    connection_control: bool
    packet_capture: bool
    packet_tagging: bool
    time_sync: bool

    def missing(self) -> List[str]:
        return [
            name
            for name, ok in (
                ("management_channel", self.management_channel),
                ("connection_control", self.connection_control),
                ("packet_capture", self.packet_capture),
                ("packet_tagging", self.packet_tagging),
                ("time_sync", self.time_sync),
            )
            if not ok
        ]


class Platform:
    """Base class for platform adapters.

    Concrete platforms populate :attr:`sim`, :attr:`channel`,
    :attr:`rngs`, :attr:`topology` and :attr:`node_managers` during
    construction.
    """

    sim: "Simulator"
    channel: "ControlChannel"
    rngs: "RngRegistry"
    topology: "Topology"
    node_managers: Dict[str, "NodeManager"]
    #: The topology's last measurement (:mod:`repro.platforms.frame`).
    frame: Optional[TestbedFrame] = None
    #: When set, :meth:`ExperiMaster.execute` synchronizes the kernel to
    #: the wall clock at this speed factor.
    realtime_factor: Optional[float] = None

    # ------------------------------------------------------------------
    def capabilities(self) -> PlatformCapabilities:
        return PlatformCapabilities(
            management_channel=True,
            connection_control=True,
            packet_capture=True,
            packet_tagging=True,
            time_sync=True,
        )

    def check_nodes(self, node_ids: List[str]) -> None:
        """Verify the platform provides every node the description maps.

        Raises :class:`PlatformError` otherwise (a description written for
        one testbed instance may not fit another, Sec. IV-E).
        """
        missing_caps = self.capabilities().missing()
        if missing_caps:
            raise PlatformError(f"platform lacks capabilities: {missing_caps}")
        missing = [nid for nid in node_ids if nid not in self.node_managers]
        if missing:
            raise PlatformError(
                f"platform provides no nodes {missing}; available: "
                f"{sorted(self.node_managers)}"
            )

    def addr_of(self, node_id: str) -> str:
        try:
            return self.node_managers[node_id].node.address
        except KeyError:
            raise PlatformError(f"unknown platform node {node_id!r}") from None

    def topology_name(self, node_id: str) -> str:
        """Topology graph name of a platform node (identity by default)."""
        return node_id

    def topology_measurement(self) -> str:
        """Level-2 text of the Sec. IV-B4 measurement between this platform's
        nodes; taken anew only when ``topology`` is another object than the
        one last measured."""
        frame = self.frame
        if frame is None or frame.topology is not self.topology:
            names = [self.topology_name(nid) for nid in self.node_managers]
            frame = self.frame = measure_frame(self.topology, names)
        return frame.measurement_json

    # ------------------------------------------------------------------
    # Per-run hooks (called by the master)
    # ------------------------------------------------------------------
    def on_run_init(self, run_id: int) -> None:
        """Reset platform-global state so the run's randomness is a pure
        function of (experiment seed, run id)."""

    def on_run_exit(self, run_id: int) -> None:
        """Per-run teardown; default nothing."""

"""The simulated wireless-mesh platform (stand-in for the DES testbed).

Builds, from an experiment description, everything the execution needs:

* the simulation kernel,
* a mesh :class:`~repro.net.topology.Topology` over the platform node ids
  of the description (Fig. 8): the process's shared, frozen testbed frame
  (:mod:`repro.platforms.frame`) — everything below it is built per platform,
* the shared :class:`~repro.net.medium.WirelessMedium`,
* one :class:`~repro.net.node.NetNode` per platform node, with a skewed
  local clock drawn from the platform seed,
* one :class:`~repro.core.nodemanager.NodeManager` per node on the
  XML-RPC control channel,
* one SD protocol agent per node (``mdns`` / ``slp`` / ``hybrid``),
  installed as the node's ``sd_*`` action implementation.

Determinism: the platform derives every random stream from the
description's seed, and :meth:`on_run_init` reseeds the shared medium and
control-channel streams per run id, so any run's behaviour is independent
of which runs executed before it (the resume guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.description import ExperimentDescription
from repro.core.errors import DescriptionError, PlatformError
from repro.core.nodemanager import NodeManager
from repro.core.params import SpecialParams
from repro.core.rpc import ControlChannel, RetryPolicy
from repro.faults.control import ControlFaultPlan
from repro.net.clock import random_clock
from repro.net.medium import CongestionModel, WirelessMedium
from repro.net.node import NetNode
from repro.net.packet import reset_uid_counter
from repro.net.topology import Topology
from repro.platforms.base import Platform
from repro.platforms.frame import frame_for
from repro.sd.agent import install_sd_agent
from repro.sd.hybrid import HybridAgent
from repro.sd.mdns import MdnsAgent
from repro.sd.registry import RegistryAgent
from repro.sd.slp import SlpAgent
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry, derive_seed

__all__ = ["PlatformConfig", "SimulatedPlatform"]

_AGENT_CLASSES = {
    "mdns": MdnsAgent,
    "slp": SlpAgent,
    "hybrid": HybridAgent,
    "registry": RegistryAgent,
}


@dataclass
class PlatformConfig:
    """Tuning of the emulated testbed.

    Attributes
    ----------
    topology:
        ``"mesh"`` (random geometric), ``"grid"``, ``"line"`` or
        ``"full"`` — or a prebuilt :class:`Topology` whose node names
        match the description's platform node ids.
    mesh_radius:
        Connectivity radius for the random geometric mesh.
    protocol:
        SD agent installed on every node: ``mdns`` / ``slp`` / ``hybrid``.
    sd_config:
        Extra agent config (see the agent classes).
    congestion:
        Medium congestion model; ``None`` = defaults.
    clock_max_offset / clock_max_drift:
        Bounds of the per-node clock desynchronization.
    mac_retries:
        Unicast MAC retransmission budget of the medium.
    base_loss:
        Per-link zero-load loss probability.
    control_faults:
        Chaos plan for the control plane itself (see
        :mod:`repro.faults.control`): a list of JSON-able fault entries
        armed per run against the XML-RPC channel.
    """

    topology: Any = "mesh"
    mesh_radius: float = 0.45
    protocol: str = "mdns"
    sd_config: Dict[str, Any] = field(default_factory=dict)
    congestion: Optional[CongestionModel] = None
    clock_max_offset: float = 0.5
    clock_max_drift: float = 100e-6
    mac_retries: int = 3
    base_loss: float = 0.02
    control_faults: List[Dict[str, Any]] = field(default_factory=list)


class SimulatedPlatform(Platform):
    """The emulated testbed bound to one experiment description."""

    def __init__(
        self,
        description: ExperimentDescription,
        config: Optional[PlatformConfig] = None,
    ) -> None:
        self.description = description
        self.config = config or PlatformConfig()
        if self.config.protocol not in _AGENT_CLASSES:
            raise PlatformError(
                f"unknown SD protocol {self.config.protocol!r}; "
                f"choose from {sorted(_AGENT_CLASSES)}"
            )
        params = SpecialParams(description.special_params)

        # Fresh global packet-uid space per platform so repeated
        # executions in one Python process stay comparable byte for byte.
        reset_uid_counter(1)

        self.rngs = RngRegistry(derive_seed(description.seed, "platform"))
        self.sim = Simulator()
        self.channel = ControlChannel(
            self.sim,
            latency=params.get("rpc_latency"),
            jitter=params.get("rpc_jitter"),
            rng=self.rngs.fresh("channel", -1),
            call_timeout=params.get("rpc_timeout"),
            retry=RetryPolicy(
                max_attempts=params.get("rpc_max_attempts"),
                seed=derive_seed(description.seed, "rpc-retry", -1),
            ),
        )
        self.control_faults = ControlFaultPlan(self.config.control_faults)

        node_ids = [n.node_id for n in description.platform.nodes]
        if not node_ids:
            raise PlatformError("description has an empty platform spec")
        spec = self.config.topology
        if isinstance(spec, Topology):  # the caller's object, used as given
            missing = [nid for nid in node_ids if nid not in spec.adj]
            if missing:
                raise PlatformError(f"custom topology misses platform nodes {missing}")
            self.topology = spec
        else:
            seed = derive_seed(description.seed, "topology")
            self.frame = frame_for(
                node_ids, spec, self.config.mesh_radius, self.config.base_loss, seed
            )
            self.topology = self.frame.topology
        self.medium = WirelessMedium(
            self.sim,
            self.topology,
            rng=self.rngs.fresh("medium", -1),
            congestion=self.config.congestion,
            mac_retries=self.config.mac_retries,
        )

        self.node_managers: Dict[str, NodeManager] = {}
        self.agents: Dict[str, Any] = {}
        addr_by_id = {n.node_id: n.address for n in description.platform.nodes}
        addresses = set(addr_by_id.values())

        def resolve_peer(peer: str) -> str:  # a path fault's peer: node id or address
            if peer not in addr_by_id and peer not in addresses:
                raise ValueError(f"path fault peer {peer!r} is no platform node id or address")
            return addr_by_id.get(peer, peer)

        agent_cls = _AGENT_CLASSES[self.config.protocol]
        sd_config = dict(self.config.sd_config)
        sd_config.setdefault("service_type", params.get("service_type"))
        registry_addrs = self._resolve_sd_node_addrs(
            params.get("sd_registry_nodes")
        )
        if registry_addrs:
            sd_config.setdefault("registry_addrs", registry_addrs)
        broker_addrs = self._resolve_sd_node_addrs(params.get("sd_broker_nodes"))
        if broker_addrs:
            sd_config.setdefault("broker_addrs", broker_addrs)
        if params.get("sd_dissemination"):
            sd_config.setdefault("dissemination", str(params.get("sd_dissemination")))

        for node_id in node_ids:
            clock = random_clock(
                self.sim,
                self.rngs.fresh("clock", node_id),
                max_offset=self.config.clock_max_offset,
                max_drift=self.config.clock_max_drift,
            )
            net_node = NetNode(self.sim, node_id, addr_by_id[node_id], clock=clock)
            self.medium.attach(net_node)
            manager = NodeManager(
                self.sim,
                net_node,
                self.channel,
                self.rngs,
                resolve_addr=resolve_peer,
            )
            agent = agent_cls(
                self.sim, net_node, self.rngs, emit=manager.emit, config=sd_config
            )
            install_sd_agent(manager, agent)
            self.node_managers[node_id] = manager
            self.agents[node_id] = agent

    # ------------------------------------------------------------------
    def _resolve_sd_node_addrs(self, raw: Any) -> List[str]:
        """Resolve the ``sd_registry_nodes`` / ``sd_broker_nodes`` special
        params — abstract ids (preferred) or platform node ids, comma or
        whitespace separated — to network addresses in listed order."""
        if not raw:
            return []
        addrs = []
        for token in str(raw).replace(",", " ").split():
            try:
                node = self.description.platform.for_abstract(token)
            except DescriptionError:
                try:
                    node = self.description.platform.by_id(token)
                except DescriptionError:
                    raise PlatformError(
                        f"sd registry/broker node {token!r} is neither an "
                        "abstract nor a platform node id"
                    ) from None
            addrs.append(node.address)
        return addrs

    # ------------------------------------------------------------------
    # Per-run determinism hooks
    # ------------------------------------------------------------------
    def on_run_init(self, run_id: int) -> None:
        self.medium.rng = self.rngs.fresh("medium", run_id)
        self.medium.reset_load()
        self.channel.rng = self.rngs.fresh("channel", run_id)
        # Resilience state resets with the data-plane streams: the retry
        # jitter stream is per-run (the resume guarantee), and any chaos
        # faults of the *previous* run are lifted before this run's are
        # armed.
        self.channel.retry.reseed(
            derive_seed(self.description.seed, "rpc-retry", run_id)
        )
        self.channel.restore_all()
        self.control_faults.arm(self.sim, self.channel, run_id)

    def on_run_exit(self, run_id: int) -> None:  # pragma: no cover - hook
        pass

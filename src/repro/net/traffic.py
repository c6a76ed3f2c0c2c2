"""Constant-bit-rate background traffic between node pairs.

This is the data-plane half of the paper's *traffic generator* environment
manipulation (Sec. IV-D2): *"Creates network load between a given number
of node pairs.  Each pair bidirectionally communicates at a given data
rate."*  Pair selection, the switch-amount logic and factor plumbing live
with the manipulations (:mod:`repro.faults.manipulations`), which start
each direction of a pair as one flow; this module only knows how to push
real packets through the medium at a rate.

The packets are genuine datagrams routed hop-by-hop through the mesh, so
they consume medium capacity exactly like experiment traffic — which is
what makes the bandwidth factor of the case study actually move the
responsiveness numbers.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, TYPE_CHECKING

from repro.net.node import NetNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["TrafficFlow", "TRAFFIC_PORT", "TRAFFIC_FLOW_LABEL"]

#: Destination port for generated load; nodes need no binding — unclaimed
#: datagrams are dropped at the destination, having already loaded the path.
TRAFFIC_PORT = 9

#: The flow label carried by generated packets, so fault rules and analyses
#: can separate load from the experiment process.
TRAFFIC_FLOW_LABEL = "generated-load"

#: Uniform randomization of each inter-packet gap (fraction of the nominal
#: interval), breaking phase lock between flows.
GAP_JITTER = 0.1


class TrafficFlow:
    """One unidirectional CBR stream ``src -> dst``.

    Parameters
    ----------
    rate_kbps:
        Application-level data rate in kilobits per second.
    packet_size:
        Bytes per datagram; the send interval follows from rate and size.
    dst_port:
        Destination port; default :data:`TRAFFIC_PORT` (dropped unheard).
        The population manipulation points flows at a *bound* service
        port instead, so the load exercises the receiver's handler path.
    payload_base:
        Extra payload keys merged under the per-packet ``seq``/``flow``
        bookkeeping — e.g. a query-shaped dict the receiving protocol
        actually parses and answers.
    """

    def __init__(
        self,
        sim: "Simulator",
        src: NetNode,
        dst: NetNode,
        rate_kbps: float,
        rng: random.Random,
        packet_size: int = 512,
        dst_port: int = TRAFFIC_PORT,
        payload_base: Optional[Dict[str, object]] = None,
    ) -> None:
        if rate_kbps <= 0:
            raise ValueError(f"rate must be positive, got {rate_kbps}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_kbps = float(rate_kbps)
        self.packet_size = int(packet_size)
        self.dst_port = int(dst_port)
        self.payload_base = dict(payload_base or {})
        self.rng = rng
        self.interval = (self.packet_size * 8.0) / (self.rate_kbps * 1000.0)
        self.sent_packets = 0
        self._process = None

    def start(self) -> None:
        if self._process is not None and self._process.alive:
            return
        self._process = self.sim.process(self._run(), name=f"cbr:{self.src.name}->{self.dst.name}")

    def stop(self) -> None:
        if self._process is not None and self._process.alive:
            self._process.interrupt("traffic_stop")
        self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.alive

    def _run(self):
        seq = 0
        while True:
            gap = self.interval * (1.0 + self.rng.uniform(-GAP_JITTER, GAP_JITTER))
            yield self.sim.timeout(max(gap, 1e-6))
            payload = dict(self.payload_base)
            payload["seq"] = seq
            payload["flow"] = TRAFFIC_FLOW_LABEL
            self.src.send_datagram(
                payload=payload,
                dst_addr=self.dst.address,
                dst_port=self.dst_port,
                src_port=TRAFFIC_PORT,
                size=self.packet_size,
                flow=TRAFFIC_FLOW_LABEL,
                tag=False,
            )
            seq += 1
            self.sent_packets += 1

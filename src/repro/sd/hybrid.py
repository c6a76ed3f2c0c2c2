"""Adaptive (hybrid) discovery architecture.

Sec. III-B: *"There exist mixed forms that can switch among two- and
three-party, called adaptive or hybrid architectures."*  Sec. V adds that
in a hybrid architecture *"SU and SM agents keep looking for SCMs and emit
scm_found events when a SCM has been discovered"*.

:class:`HybridAgent` extends the SLP agent with two-party behaviour so
the system works with or without a directory:

* an SM **announces over multicast** (mDNS-style burst + refresh) *and*
  registers with the SCM once one is found;
* an SU **multicasts queries** (with exponential back-off) *and*, once an
  SCM is known, switches to directed unicast queries — which keep working
  when multicast starts failing under load;
* SMs answer multicast queries directly (with the randomized response
  delay), so discovery works in SCM-less periods.

All messages share the SLP port; the two-party message kinds are
``mc_query`` / ``mc_response``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict

from repro.net.packet import Packet
from repro.sd.model import ServiceInstance
from repro.sd.slp import SlpAgent

__all__ = ["HybridAgent"]


class HybridAgent(SlpAgent):
    """Adaptive two/three-party SD agent.

    Accepts all :class:`~repro.sd.slp.SlpAgent` config keys plus the
    mDNS-style ones it reuses: ``announce_count``, ``announce_interval``,
    ``query_backoff_base``, ``query_backoff_cap``, ``response_delay_min``,
    ``response_delay_max``.
    """

    protocol = "hybrid"
    response_kind = "mc_response"

    # ------------------------------------------------------------------
    # Publishing: multicast announcements + directory registration
    # ------------------------------------------------------------------
    def on_start_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        super().on_start_publish(instance, params)  # SLP registrar
        self.spawn(self.announcer(instance.service_type, True), f"announce:{instance.name}")

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        super().on_stop_publish(instance, params)  # deregister at the SCM
        goodbye = replace(instance, ttl=0.0).as_wire()
        # Sized like the SLP multicasts, not like a two-party response.
        self.send(self.group, {"kind": self.response_kind, "qid": None, "records": [goodbye]}, 100)

    # ------------------------------------------------------------------
    # Searching: multicast until an SCM is known, directed afterwards
    # ------------------------------------------------------------------
    def on_start_search(self, service_type: str, params: Dict[str, Any]):
        return self.spawn(self._hybrid_searcher(service_type), f"search:{service_type}")

    def _hybrid_searcher(self, service_type: str):
        base = float(self.config.get("query_backoff_base", 1.0))
        cap = float(self.config.get("query_backoff_cap", 60.0))
        poll = float(self.config.get("poll_interval", 2.0))
        yield self.sim.timeout(self.rng.uniform(0.02, 0.12))
        interval = base
        while service_type in self.searching:
            if self._da_addr is not None:
                # Directed mode: reliable unicast transaction to the SCM.
                yield from self._query_da(service_type)
                yield self.sim.timeout(poll)
            else:
                # Two-party mode: multicast query with back-off.
                query = {"kind": "mc_query", "qid": next(self._xid), "type": service_type}
                self.send(self.group, query, 90)
                yield self.sim.timeout(interval)
                interval = min(interval * 2.0, cap)

    # ------------------------------------------------------------------
    # Receive path: SLP kinds + the two-party kinds
    # ------------------------------------------------------------------
    def receive(self, kind: Any, payload: Dict[str, Any], packet: Packet) -> None:
        if kind == "mc_query":
            self._handle_query(payload)
        elif kind == "mc_response":
            self.take_records(payload.get("records", []))
        else:
            super().receive(kind, payload, packet)

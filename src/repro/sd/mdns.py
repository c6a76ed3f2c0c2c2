"""Two-party, mDNS/DNS-SD-style service discovery.

The decentralized architecture of Fig. 2 (left): only SUs and SMs,
communicating over multicast.  The protocol mechanics mirror Zeroconf —
the SDP suite (Avahi) used by the paper's prototype:

* **Announcements**: a publishing SM multicasts unsolicited responses,
  a burst at startup (default 3, one second apart, the first after a small
  random delay) and periodic refreshes before the record TTL expires.
* **Queries**: a searching SU multicasts queries with exponential back-off
  (1 s, 2 s, 4 s, ... capped), carrying *known answers*; responders
  suppress answers the querier already holds fresh (> 1/2 TTL).
* **Responses**: multicast (so every cache on the mesh profits), delayed
  by a random 20–120 ms to de-synchronize responders, and echoing the
  query id — the request/response association the paper had to patch into
  Avahi (Sec. VI: *"modified to allow the association of request and
  response pairs"*).
* **Goodbyes**: TTL-zero records on graceful un-publish.
* **Cache**: TTL-bounded; expiry triggers ``sd_service_del``.

Discovery modes: ``active`` (default — query + listen), ``passive``
(listen only, Sec. III-B's lazy discovery).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from repro.net.packet import MULTICAST_SD_GROUP, Packet
from repro.sd.agent import SDAgent
from repro.sd.model import ServiceInstance

__all__ = ["MdnsAgent", "SD_PORT", "META_TYPE_ENUMERATION"]

#: The mDNS UDP port.
SD_PORT = 5353

#: DNS-SD's meta-query name for service *type* enumeration: searching for
#: this type discovers the service types present in the network rather
#: than instances (Sec. III-A: "not only services can be discovered, but
#: administrative scopes, SCMs and service types, depending on the SDP").
META_TYPE_ENUMERATION = "_services._dns-sd._udp"


class MdnsAgent(SDAgent):
    """Two-party SD agent (see module docstring).

    Config keys (all optional)
    --------------------------
    ``announce_count`` (3), ``announce_interval`` (1.0 s),
    ``query_backoff_base`` (1.0 s), ``query_backoff_cap`` (60 s),
    ``response_delay_min``/``max`` (0.02 / 0.12 s), ``record_ttl``
    (120 s), ``refresh`` (True), ``mode`` ("active"|"passive"),
    ``goodbye_repeats`` (2).
    """

    protocol = "mdns"
    group = MULTICAST_SD_GROUP
    port = SD_PORT

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Statistics for analyses: qid -> send time, plus rtt samples.
        self.query_sent_at: Dict[int, float] = {}
        self.response_rtts: List[Tuple[int, float]] = []

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_init(self, params: Dict[str, Any]) -> None:
        if self.role is not None and self.role.value == "scm":
            raise RuntimeError("two-party mDNS protocol has no SCM role")
        self.listen()
        self.spawn(self.cache_housekeeping(), "cache")

    def on_exit(self) -> None:
        self.query_sent_at.clear()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def on_start_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        announcer = self.announcer(instance.service_type, self.config.get("refresh", True))
        self.spawn(announcer, f"announce:{instance.name}")

    def on_stop_publish(self, instance: ServiceInstance, params: Dict[str, Any]) -> None:
        # Goodbye: the record with TTL zero, repeated for loss resilience.
        for _ in range(int(self.config.get("goodbye_repeats", 2))):
            self.send_response(None, [replace(instance, ttl=0.0).as_wire()])

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------
    def on_start_search(self, service_type: str, params: Dict[str, Any]):
        mode = str(params.get("mode", self.config.get("mode", "active")))
        if mode != "active":
            return None
        return self.spawn(self._querier(service_type), f"query:{service_type}")

    def on_stop_search(self, service_type: str, params: Dict[str, Any]) -> None:
        self._stop_searcher(service_type, "sd_stop_search")

    def _querier(self, service_type: str):
        base = float(self.config.get("query_backoff_base", 1.0))
        cap = float(self.config.get("query_backoff_cap", 60.0))
        # First query goes out after the mDNS 20-120 ms randomization.
        yield self.sim.timeout(self.rng.uniform(0.02, 0.12))
        interval = base
        while True:
            self._send_query(service_type)
            yield self.sim.timeout(interval)
            interval = min(interval * 2.0, cap)

    def _send_query(self, service_type: str) -> int:
        qid = next(self._xid)
        known = [
            [entry.instance.name, entry.fresh_fraction(self.sim.now)]
            for entry in self.cache.entries_for_type(service_type)
        ]
        self.query_sent_at[qid] = self.sim.now
        self.send(
            self.group,
            {"kind": "query", "qid": qid, "type": service_type, "known": known},
            80 + 40 * len(known),
        )
        return qid

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, kind: Any, payload: Dict[str, Any], packet: Packet) -> None:
        if kind == "query":
            self._handle_query(payload)
        elif kind == "response":
            self._handle_response(payload)

    def answer(self, payload: Dict[str, Any]) -> None:
        qtype = str(payload.get("type", ""))
        if qtype == META_TYPE_ENUMERATION:
            self._handle_type_enumeration(payload)
            return
        instance = self.published.get(qtype)
        # Known-answer suppression: the querier already holds our record
        # with more than half its lifetime left.  Toggleable for ablation
        # studies (benchmarks/bench_ablations.py).
        if instance is not None and self.config.get("known_answer_suppression", True):
            for name, fresh in payload.get("known", []):
                if name == instance.name and float(fresh) > 0.5:
                    return
        super().answer(payload)

    # ------------------------------------------------------------------
    # Service-type enumeration (DNS-SD meta-queries)
    # ------------------------------------------------------------------
    def _handle_type_enumeration(self, payload: Dict[str, Any]) -> None:
        """Answer a type-enumeration query with one pointer record per
        published service type.  The pointer is itself a record under the
        meta type, named after the real type, so the generic cache /
        discovered() machinery applies unchanged."""
        known = {name for name, _fresh in payload.get("known", [])}
        pointers = [
            ServiceInstance(
                name=service_type,
                service_type=META_TYPE_ENUMERATION,
                provider_node=self.node.name,
                address=self.node.address,
                ttl=float(self.config.get("record_ttl", 120.0)),
            ).as_wire()
            for service_type in sorted(self.published)
            if service_type not in known
        ]
        if not pointers:
            return
        qid = payload.get("qid")
        self.respond(lambda: self.send_response(qid, pointers) if self.published else None)

    def _handle_response(self, payload: Dict[str, Any]) -> None:
        qid = payload.get("qid")
        if qid is not None and qid in self.query_sent_at:
            self.response_rtts.append((qid, self.sim.now - self.query_sent_at[qid]))
        self.take_records(payload.get("records", []))

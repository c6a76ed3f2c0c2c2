"""Anti-entropy gossip between registry replicas.

Multiple registry replicas (the SCM instances of the registry family)
stay convergent by periodically pushing their full registration state to
one randomly chosen peer.  The payload carries each record together with
its *remaining* lifetime, so the receiver reconstructs an equivalent
expiry deadline on its own cache without assuming synchronized
registration times.  Merging is monotonic: the newer description version
wins, and at equal versions the later expiry deadline wins (the peer who
heard a more recent renewal extends ours).  Deletions propagate by TTL
expiry — there are no tombstones, which is exactly the convergence model
of TTL-based registries (a deregistered record can transiently reappear
from a stale peer but dies with its lifetime).

Determinism: peer choice and interval jitter draw from the owning
agent's per-run RNG stream, making every gossip schedule a pure function
of (experiment seed, node, run id).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, TYPE_CHECKING

from repro.sd.model import ServiceInstance
from repro.sd.records import ServiceCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.sd.registry import RegistryAgent

__all__ = ["gossip_wire", "merge_gossip", "GossipReplicator"]


def gossip_wire(cache: ServiceCache, now: float) -> List[List[Any]]:
    """Serialize a registration store as ``[record, remaining]`` pairs."""
    return [
        [entry.instance.as_wire(), entry.remaining(now)]
        for entry in cache.all_entries()
    ]


def merge_gossip(
    cache: ServiceCache, records: List[List[Any]], now: float
) -> Tuple[List[Tuple[ServiceInstance, str]], int]:
    """Merge a gossip payload into *cache*.

    Returns ``(changes, extended)``: the list of ``(instance, "add"|"upd")``
    state changes the receiver should announce, and the count of records
    whose expiry was merely extended (same version, later deadline —
    no announcement, but proof the sync did something).
    """
    changes: List[Tuple[ServiceInstance, str]] = []
    extended = 0
    for wire, remaining in records:
        instance = ServiceInstance.from_wire(wire)
        expires_at = now + float(remaining)
        before = cache.get(instance.service_type, instance.name)
        is_new, is_update = cache.refresh(instance, expires_at, now)
        if is_new:
            changes.append((instance, "add"))
        elif is_update:
            changes.append((instance, "upd"))
        else:
            after = cache.get(instance.service_type, instance.name)
            if before is not None and after is not None and after.expires_at > before.expires_at:
                extended += 1
    return changes, extended


class GossipReplicator:
    """The periodic anti-entropy process of one registry replica.

    Parameters
    ----------
    agent:
        The owning :class:`~repro.sd.registry.RegistryAgent` (SCM role).
    peers:
        Addresses of the *other* active replicas.
    interval:
        Nominal seconds between rounds; each gap is jittered ±10 % from
        the agent's RNG to break phase lock between replicas.
    """

    def __init__(self, agent: "RegistryAgent", peers: List[str], interval: float) -> None:
        self.agent = agent
        self.peers = sorted(peers)
        self.interval = float(interval)
        self.rounds_sent = 0
        self.merges_applied = 0

    # ------------------------------------------------------------------
    def run(self):
        """Generator: one gossip push per jittered interval."""
        agent = self.agent
        epoch = agent._epoch
        if not self.peers:
            return
        while True:
            gap = self.interval * (1.0 + agent.rng.uniform(-0.1, 0.1))
            yield agent.sim.timeout(gap)
            if epoch != agent._epoch:
                return
            peer = agent.rng.choice(self.peers)
            self.push_to(peer)

    def push_to(self, peer_addr: str) -> None:
        """Send this replica's full state to one peer."""
        records = gossip_wire(self.agent.registrations, self.agent.sim.now)
        self.agent.send(
            peer_addr,
            {"kind": "gossip", "records": records},
            120 + 80 * len(records),
        )
        self.rounds_sent += 1

    # ------------------------------------------------------------------
    def handle(self, payload: Dict[str, Any]) -> None:
        """Merge an incoming gossip payload; announce what changed."""
        agent = self.agent
        changes, extended = merge_gossip(
            agent.registrations, payload.get("records", []), agent.sim.now
        )
        for instance, op in changes:
            agent.announce_registration(instance, op)
        if changes or extended:
            self.merges_applied += 1
        # Announce only real state changes: pure deadline extensions recur
        # every round once converged and would flood the run's event record.
        if changes:
            agent.announce_gossip_sync(
                str(payload.get("from", "")), len(changes), extended
            )

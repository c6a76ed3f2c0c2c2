"""Behaviour the four SD families share through ``SDAgent``.

* A restarted search runs one searcher: ``sd_stop_search`` followed by
  ``sd_start_search`` for the same type must not leave the old searcher
  polling beside the new one.
* A re-registration after ``sd_update_publication`` carries the
  configured ``registration_ttl``, like the first registration does.
"""

from __future__ import annotations

import pytest

from repro.sd import model as M
from repro.sd.hybrid import HybridAgent
from repro.sd.mdns import MdnsAgent
from repro.sd.registry import RegistryAgent
from repro.sd.slp import SlpAgent

from tests.unit.sd.conftest import AgentHarness

SVC = "_exp._udp"

#: family -> (agent class, config, roles by node, the SU's query kind)
FAMILIES = {
    "mdns": (MdnsAgent, {}, {"s0": "sm", "s1": "su"}, "query"),
    "slp": (SlpAgent, {}, {"s2": "scm", "s0": "sm", "s1": "su"}, "srv_rqst"),
    "hybrid": (HybridAgent, {}, {"s2": "scm", "s0": "sm", "s1": "su"}, "srv_rqst"),
    "registry": (
        RegistryAgent,
        {"registry_addrs": ["10.3.0.3"], "poll_interval": 0.5},
        {"s2": "scm", "s0": "sm", "s1": "su"},
        "query",
    ),
}


def _su_queries_after_t10(family, restart):
    """Queries the SU sends in (10, 30] when its search (re)starts at t=10.

    With ``restart`` the SU searches from t=0, stops and starts again at
    t=10; without it the SU's first search starts at t=10.
    """
    cls, config, roles, kind = FAMILIES[family]
    h = AgentHarness(cls, n=3, config=config)
    sent = []
    su_node = h.nodes["s1"]
    send = su_node.send_datagram

    def counting_send(payload, **kwargs):
        sent.append((h.sim.now, payload.get("kind")))
        return send(payload, **kwargs)

    su_node.send_datagram = counting_send
    for node, role in roles.items():
        h.agents[node].action_init({"role": role})
    h.agents["s0"].action_start_publish({"type": SVC})
    su = h.agents["s1"]
    if restart:
        su.action_start_search({"type": SVC})
    h.run(until=10.0)
    if restart:
        su.action_stop_search({"type": SVC})
    su.action_start_search({"type": SVC})
    h.run(until=30.0)
    return sum(1 for t, k in sent if t > 10.0 and k == kind)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_restarted_search_runs_one_searcher(family):
    fresh = _su_queries_after_t10(family, restart=False)
    assert fresh > 0
    assert _su_queries_after_t10(family, restart=True) == fresh


@pytest.mark.parametrize("cls", [SlpAgent, HybridAgent], ids=["slp", "hybrid"])
def test_reregistration_carries_the_registration_ttl(cls):
    h = AgentHarness(cls, n=3, config={"registration_ttl": 3.0})
    h.agents["s2"].action_init({"role": "scm"})
    sm = h.agents["s0"]
    sm.action_init({"role": "sm"})
    sm.action_start_publish({"type": SVC})
    h.run(until=4.0)
    sm.action_update_publication({"type": SVC})
    h.run(until=4.5)
    # A crash: the SM leaves without deregistering.
    sm.action_exit({})
    h.run(until=4.6)
    entry = h.agents["s2"].registrations.get(SVC, f"s0.{SVC}")
    assert entry is not None and entry.instance.version == 2
    assert entry.remaining(h.sim.now) <= 3.0
    h.run(until=20.0)
    assert len(h.agents["s2"].registrations) == 0
    t_del, params = h.first("s2", M.EVENT_SCM_REGISTRATION_DEL)
    assert params == (f"s0.{SVC}", "s0") and t_del < 9.0

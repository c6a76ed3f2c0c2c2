"""The teardown ordering race in ``SDAgent._teardown``.

When the cache-housekeeping timeout fires in the *same simulation
instant* as ``sd_exit``, the kernel has already detached the process's
resume callback from the timeout, so the teardown's ``interrupt()``
cannot cancel it: without the epoch guard the housekeeping body runs one
extra time after ``cache.clear()`` / ``initialized = False`` — purging
state of the next lifecycle and scheduling a stray timeout.  These tests
force exactly that interleaving.
"""

from repro.net.node import NetNode
from repro.sd import model as M
from repro.sd.agent import SDAgent
from repro.sd.model import ServiceInstance, instance_name
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class _LoopbackAgent(SDAgent):
    """Minimal concrete agent: no network, just the housekeeping loop."""

    protocol = "loopback"

    def on_init(self, params):
        self.spawn(self.cache_housekeeping(), "cache")

    def on_start_search(self, service_type, params):
        pass

    def on_start_publish(self, instance, params):
        pass


def _make_agent():
    sim = Simulator()
    node = NetNode(sim, "s0", "10.9.0.1")
    events = []

    def emit(name, params=()):
        events.append((sim.now, name, tuple(params)))

    agent = _LoopbackAgent(sim, node, RngRegistry(7), emit=emit, config={})
    agent.reset(0)
    return sim, agent, events


def _instance(ttl):
    return ServiceInstance(
        name=instance_name("_exp._udp", "p0"),
        service_type="_exp._udp",
        provider_node="p0",
        address="10.9.0.9",
        ttl=ttl,
    )


def test_exit_mid_housekeeping_interval_never_purges_after_teardown():
    sim, agent, events = _make_agent()

    # The driver's timeout is created *before* the agent spawns its
    # housekeeping loop, so at t=2.0 — where both the exit and the
    # housekeeping wakeup land — the exit runs first and the already
    # scheduled housekeeping resume runs right after the teardown.
    def driver():
        yield sim.timeout(2.0)
        agent.action_exit({})

    sim.process(driver(), name="driver")
    agent.action_init({"role": "su"})
    agent.action_start_search({"type": "_exp._udp"})
    agent.discovered(_instance(ttl=1.5))

    purge_calls = []
    real_purge = agent.cache.purge_expired

    def spying_purge(now):
        purge_calls.append(agent.initialized)
        return real_purge(now)

    agent.cache.purge_expired = spying_purge
    sim.run(until=5.0)

    # The t=1.0 wakeup purged normally (agent initialized); the stale
    # resume that raced the teardown at t=2.0 must not have run a purge.
    assert purge_calls == [True]
    assert not agent.initialized
    assert len(agent.cache) == 0

    # No SD event may follow sd_exit_done: the goodbye is the last word.
    names = [name for _t, name, _p in events]
    assert names.count(M.EVENT_SD_EXIT_DONE) == 1
    assert names[-1] == M.EVENT_SD_EXIT_DONE
    assert M.EVENT_SD_SERVICE_DEL not in names[names.index(M.EVENT_SD_EXIT_DONE) :]


def test_reinit_in_exit_instant_keeps_new_cache_untouched():
    """Exit + immediate re-init in the racing instant: the stale loop of
    the previous lifecycle must not purge (or announce loss for) entries
    of the new one, and the new housekeeping still works."""
    sim, agent, events = _make_agent()

    def driver():
        yield sim.timeout(2.0)
        agent.action_exit({})
        agent.action_init({"role": "su"})
        agent.action_start_search({"type": "_exp._udp"})
        # Fresh lifecycle entry expiring at t=2.5.
        agent.discovered(_instance(ttl=0.5))

    sim.process(driver(), name="driver")
    agent.action_init({"role": "su"})
    agent.action_start_search({"type": "_exp._udp"})
    sim.run(until=2.1)
    assert agent.initialized
    assert len(agent.cache) == 1  # the stale loop did not purge it early

    sim.run(until=5.0)
    # The new lifecycle's own housekeeping expired it at t=3.0.
    assert len(agent.cache) == 0
    dels = [(t, p) for t, name, p in events if name == M.EVENT_SD_SERVICE_DEL]
    assert dels == [(3.0, ("p0._exp._udp", "p0"))]


def test_housekeeping_still_expires_and_announces_normally():
    sim, agent, events = _make_agent()
    agent.action_init({"role": "su"})
    agent.action_start_search({"type": "_exp._udp"})
    agent.discovered(_instance(ttl=2.5))
    sim.run(until=10.0)
    names = [name for _t, name, _p in events]
    assert M.EVENT_SD_SERVICE_ADD in names
    assert M.EVENT_SD_SERVICE_DEL in names

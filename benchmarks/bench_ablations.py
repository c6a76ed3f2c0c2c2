"""Ablations of the substrate's design choices (DESIGN.md §2/§3).

Each ablation switches one mechanism off and shows the behavioural shift
that justifies having it:

* **MAC retries** (unicast link reliability): without them, the SLP
  directory's unicast exchanges lean entirely on application-level
  retransmissions.
* **Multicast flooding** (mesh-wide mDNS): without re-flooding, multicast
  discovery cannot cross a multi-hop mesh at all.
* **Known-answer suppression**: without it, every periodic query provokes
  redundant responses — measurable as extra SD packets on the wire.
* **Announcement burst**: without unsolicited announcements, discovery
  latency shifts from "whenever the announcement lands" to a full
  query/response round trip.
"""

import random

from conftest import print_table, run_once

from repro import run_experiment
from repro.net.medium import WirelessMedium
from repro.net.node import NetNode
from repro.net.packet import MULTICAST_SD_GROUP
from repro.net.topology import line_topology
from repro.platforms.simulated import PlatformConfig
from repro.sd.processlib import build_two_party_description
from repro.sim.kernel import Simulator
from repro.storage.level3 import ExperimentDatabase


def _mesh(sim, n, base_loss, mac_retries):
    topo = line_topology(n, base_loss=base_loss, prefix="a")
    medium = WirelessMedium(sim, topo, random.Random(5), mac_retries=mac_retries)
    nodes = []
    for i in range(n):
        node = NetNode(sim, f"a{i}", f"10.7.0.{i + 1}")
        medium.attach(node)
        nodes.append(node)
    return medium, nodes


def test_ablation_mac_retries(benchmark):
    """Unicast delivery with vs without link-layer retransmissions."""

    def deliver(mac_retries):
        sim = Simulator()
        medium, (a, b) = _mesh(sim, 2, base_loss=0.4, mac_retries=mac_retries)
        got = []
        b.bind(9, lambda pl, pkt, n: got.append(pl))
        for _ in range(300):
            a.send_datagram("x", b.address, 9)
        sim.run(until=30.0)
        return len(got) / 300.0

    def both():
        return deliver(0), deliver(3)

    without, with_retries = benchmark(both)
    print_table(
        "Ablation: MAC retries (per-link loss 0.4)",
        "variant            delivery",
        [f"retries=0          {without:.2f}",
         f"retries=3          {with_retries:.2f}"],
    )
    assert without < 0.75          # ~0.6 expected
    assert with_retries > 0.9      # ~1-0.4^4 ≈ 0.97


def test_ablation_multicast_flooding(benchmark):
    """Multicast reach across a 4-hop line, flooding on vs off."""

    def reach(flooding):
        sim = Simulator()
        medium, nodes = _mesh(sim, 5, base_loss=0.0, mac_retries=0)
        for node in nodes:
            node.flood_multicast = flooding
        hits = []
        for node in nodes[1:]:
            node.join_group(MULTICAST_SD_GROUP)
            node.bind(9, lambda pl, pkt, n, _n=node: hits.append(_n.name))
        nodes[0].send_datagram("q", MULTICAST_SD_GROUP, 9)
        sim.run(until=5.0)
        return sorted(hits)

    def both():
        return reach(False), reach(True)

    without, with_flooding = benchmark(both)
    print_table(
        "Ablation: multicast flooding (5-node line, sender a0)",
        "variant      reached",
        [f"flooding=no  {without}",
         f"flooding=yes {with_flooding}"],
    )
    assert without == ["a1"]                       # one hop only
    assert with_flooding == ["a1", "a2", "a3", "a4"]  # whole mesh


def test_ablation_known_answer_suppression(benchmark, workdir):
    """SD packet volume with vs without known-answer suppression.

    A searching SU keeps querying; once it holds the answer, suppression
    silences the responder.  Disabling suppression (fresh fraction never
    reported) multiplies response traffic.
    """

    def sd_packets(suppression):
        desc = build_two_party_description(
            name=f"ka-{suppression}", seed=9, replications=1, env_count=0,
            deadline=5.0,
        )
        # Keep searching well past discovery so periodic queries happen:
        # lengthen the run by making the SU wait before raising 'done'.
        from repro.core.processes import WaitForTime

        su = desc.actor("actor1")
        done_idx = next(
            i for i, a in enumerate(su.actions)
            if getattr(a, "value", None) == "done"
        )
        su.actions.insert(done_idx, WaitForTime(seconds=20.0))
        sd_config = {
            "query_backoff_cap": 2.0,
            "known_answer_suppression": suppression,
        }
        config = PlatformConfig(topology="full", sd_config=sd_config)
        result = run_experiment(desc, workdir / f"ka-{suppression}", config=config)
        with ExperimentDatabase(result.db_path) as db:
            packets = db.packets(run_id=0)
        responses = [
            p for p in packets
            if p["direction"] == "tx" and p["node"] == "t9-100"
            and "'kind': 'response'" in str(p["payload"])
        ]
        return len(responses)

    def both():
        return sd_packets(True), sd_packets(False)

    with_suppression, without = run_once(benchmark, both)
    print_table(
        "Ablation: known-answer suppression (20 s continuous search)",
        "variant               SM responses on the wire",
        [f"with suppression      {with_suppression}",
         f"without               {without}"],
    )
    # Without suppression every periodic query provokes a response; with
    # it the responder goes quiet once the SU holds a fresh record.
    assert without > 2 * with_suppression
    assert with_suppression <= 6


def test_ablation_announcements(benchmark, workdir):
    """Discovery latency with vs without the announcement burst."""

    def median_t_r(announce_count):
        desc = build_two_party_description(
            name=f"ann-{announce_count}", seed=17, replications=5, env_count=0,
        )
        config = PlatformConfig(
            topology="full", sd_config={"announce_count": announce_count}
        )
        result = run_experiment(desc, workdir / f"ann{announce_count}", config=config)
        times = []
        with ExperimentDatabase(result.db_path) as db:
            runs = [db.events(run_id=run_id) for run_id in range(5)]
        for events in runs:
            start = next(
                (e["common_time"] for e in events if e["name"] == "sd_start_search"),
                None,
            )
            add = next(
                (e["common_time"] for e in events if e["name"] == "sd_service_add"),
                None,
            )
            if start is not None and add is not None:
                times.append(add - start)
        times.sort()
        return times[len(times) // 2]

    def both():
        return median_t_r(0), median_t_r(3)

    without, with_announcements = run_once(benchmark, both)
    print_table(
        "Ablation: announcement burst",
        "variant          median t_R",
        [f"announcements=0  {without:.3f}s  (full query round trip)",
         f"announcements=3  {with_announcements:.3f}s"],
    )
    # Without announcements the SU must wait for its own query (+20-120ms
    # send delay) and the responder's delay; announcements can land during
    # the search immediately.  Both must succeed; query path is not faster.
    assert without >= with_announcements * 0.5
    assert without > 0.03

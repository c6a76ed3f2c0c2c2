#!/usr/bin/env python
"""Fleet chaos drill: the CI-facing version of the fabric failover tests.

Orchestrates real processes over localhost — exactly what
``tests/integration/test_fleet_fabric.py`` and ``test_fleet_failover.py``
do with in-process threads, but with the OS in the loop.  Three
scenarios (``--scenario``):

``kill-worker`` (default)
    SIGKILL one worker mid-batch, then SIGKILL the coordinator itself
    and restart it with ``--resume``; assert the merged digest is
    byte-identical to the local reference and the journal recorded the
    failover (two sessions, the dead worker's lease expired).
``kill-leader-with-standby``
    SIGKILL the leader mid-batch with a hot standby watching the
    election ledger; assert the standby claims the next epoch within
    the leadership-lease TTL, workers re-resolve through their seed
    lists, and the digest matches with exactly-once commits.
``partition-heal``
    SIGSTOP the leader (a partition: the process is alive but silent)
    until a standby takes over, then SIGCONT it; assert the healed
    stale leader is fenced out (exits 3, deposed), and the digest
    matches with exactly-once commits.

Prints ``DIGEST-MATCH`` and ``FAILOVER-OK`` markers for the CI job to
grep; exits non-zero on any divergence.  Stdlib only.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

ELECTION_TTL = 3.0


def repro_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def repro(*args, **kwargs):
    kwargs.setdefault("env", repro_env())
    kwargs.setdefault("cwd", str(ROOT))
    return subprocess.run(
        [sys.executable, "-m", "repro", *map(str, args)],
        check=True,
        capture_output=True,
        text=True,
        **kwargs,
    )


def spawn(args, log_path, **kwargs):
    kwargs.setdefault("env", repro_env())
    kwargs.setdefault("cwd", str(ROOT))
    log = open(log_path, "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *map(str, args)],
        stdout=log,
        stderr=subprocess.STDOUT,
        **kwargs,
    )


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def digest(db_path):
    return repro("inspect", db_path, "--digest").stdout.strip()


def fleet_status(address):
    from repro.core.errors import RpcError, RpcTimeout
    from repro.fabric import FleetChannel

    try:
        with FleetChannel(address, call_timeout=5.0, reconnect_budget=2.0) as channel:
            return json.loads(channel.call("status"))
    except (RpcError, RpcTimeout, OSError, json.JSONDecodeError):
        return None


def holds_pending_lease(journal, worker_id):
    """True while *worker_id* has an active lease with unacked runs, by
    the journal's fold (each poll reads what the file gained)."""
    return journal.follow(
        lambda state: any(
            lease.active and lease.worker_id == worker_id and lease.pending
            for lease in state.leases.values()
        )
    )


def write_description(path, replications, seed):
    from repro.core.xmlio import description_to_xml
    from repro.sd.processlib import build_two_party_description

    desc = build_two_party_description(
        name="fleet-drill", seed=seed, replications=replications, env_count=1
    )
    path.write_text(description_to_xml(desc), encoding="utf-8")


def journal_checks(work, replications, failures):
    """Shared exactly-once assertions on the fleet campaign journal."""
    from repro.campaign.journal import CampaignJournal

    journal = CampaignJournal(work / "fleet.campaign")
    completions = [e for e in journal.entries() if e["type"] == "run_complete"]
    run_ids = [e["run_id"] for e in completions]
    state = journal.state()
    print(
        f"[drill] journal: sessions={len(state.starts)} "
        f"run_complete={len(completions)} finished={state.complete}"
    )
    if len(run_ids) != len(set(run_ids)):
        failures.append("a run has more than one run_complete entry "
                        "(double commit)")
    if len(set(run_ids)) != replications:
        failures.append(f"journal completed {len(set(run_ids))} distinct runs, "
                        f"expected {replications}")
    if not state.complete:
        failures.append("journal never recorded campaign_complete")
    return journal, completions


def wait_first_commit(address, deadline):
    """Block until the coordinator at *address* settled ≥1 run."""
    while True:
        if time.monotonic() > deadline:
            raise RuntimeError("drill timed out waiting for first completed run")
        status = fleet_status(address)
        if status and status["scheduler"]["done"] >= 1:
            if status["finished"]:
                raise RuntimeError(
                    "campaign finished before the drill could inject faults; "
                    "raise --replications"
                )
            return status
        time.sleep(0.05)


def wait_takeover(work, killed_at, budget, failures):
    """Wait for a claim at epoch 2; enforce the lease-TTL takeover bound."""
    from repro.campaign.journal import CampaignJournal
    from repro.fabric.election import ElectionLedger

    ledger = ElectionLedger(CampaignJournal(work / "fleet.campaign"), ttl=ELECTION_TTL)
    deadline = killed_at + budget
    while time.monotonic() < deadline:
        record = ledger.leader()
        if record is not None and record.epoch >= 2:
            took = time.monotonic() - killed_at
            print(f"[drill] takeover: {record.leader_id} claimed epoch "
                  f"{record.epoch} after {took:.1f}s")
            if took > ELECTION_TTL + 3.0:
                failures.append(
                    f"takeover took {took:.1f}s, beyond the {ELECTION_TTL:g}s "
                    "leadership-lease TTL (+3s promotion slack)"
                )
            return record
        time.sleep(0.05)
    failures.append("no standby claimed the lapsed leadership lease")
    return None


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_kill_worker(args, work, xml, ref, procs, deadline):
    from repro.campaign.journal import CampaignJournal

    port = free_port()
    address = f"127.0.0.1:{port}"
    serve_args = [
        "fabric", "serve", xml, "--bind", address,
        "--dir", work / "fleet.campaign", "--db", work / "fleet.db",
        "--batch-size", args.batch_size, "--lease-ttl", args.lease_ttl,
        "--linger", "5",
    ]
    print(f"[drill] coordinator on {address}, 3 workers")
    coordinator = spawn(serve_args, work / "coordinator-1.log")
    procs.append(coordinator)
    workers = {}
    for i in range(3):
        workers[f"w{i}"] = spawn(
            [
                "fabric", "worker", address, "--id", f"w{i}",
                "--workdir", work / f"w{i}", "--poll", "0.2",
                "--reconnect-budget", "120", "--quiet",
            ],
            work / f"worker-w{i}.log",
        )
    procs.extend(workers.values())

    # Kill w0 while the journal shows it mid-batch, so its open lease is
    # left behind for TTL expiry to reclaim.
    journal = CampaignJournal(work / "fleet.campaign")
    while not holds_pending_lease(journal, "w0"):
        if time.monotonic() > deadline:
            raise RuntimeError("drill timed out waiting for w0 to hold a batch")
        time.sleep(0.02)
    print("[drill] SIGKILL worker w0 mid-batch")
    workers["w0"].kill()
    workers["w0"].wait()

    status = wait_first_commit(address, deadline)
    done = status["scheduler"]["done"]
    print(f"[drill] SIGKILL coordinator after {done} completed run(s)")
    coordinator.kill()
    coordinator.wait()

    print("[drill] restarting coordinator with --resume on the same port")
    coordinator = spawn(serve_args + ["--resume"], work / "coordinator-2.log")
    procs.append(coordinator)
    rc = coordinator.wait(timeout=max(10.0, deadline - time.monotonic()))
    if rc != 0:
        sys.stdout.write((work / "coordinator-2.log").read_text())
        raise RuntimeError(f"resumed coordinator exited with {rc}")
    for worker_id in ("w1", "w2"):
        try:
            workers[worker_id].wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            workers[worker_id].terminate()

    failures = []
    journal, _ = journal_checks(work, args.replications, failures)
    if len(journal.state().starts) < 2:
        failures.append("coordinator restart did not journal a second session")
    expiries = [e for e in journal.entries() if e["type"] == "lease_expired"]
    if not any(e["worker_id"] == "w0" for e in expiries):
        failures.append("the killed worker's lease never expired")
    return failures


def _spawn_fleet_with_standby(args, work, xml, procs, deadline):
    """Leader + hot standby + 2 seed-listed workers; returns the procs."""
    leader_port, standby_port = free_port(), free_port()
    leader_addr = f"127.0.0.1:{leader_port}"
    standby_addr = f"127.0.0.1:{standby_port}"
    seeds = f"{leader_addr},{standby_addr}"
    common = [
        "--dir", work / "fleet.campaign", "--db", work / "fleet.db",
        "--batch-size", args.batch_size, "--lease-ttl", args.lease_ttl,
        "--election-ttl", ELECTION_TTL, "--linger", "5",
    ]
    print(f"[drill] leader on {leader_addr}, standby on {standby_addr}")
    leader = spawn(
        ["fabric", "serve", xml, "--bind", leader_addr,
         "--leader-id", "leader-1", *common],
        work / "leader.log",
    )
    procs.append(leader)
    # The standby spawns only once the leader serves: a standby watching
    # an unclaimed ledger would bootstrap leadership itself.
    while fleet_status(leader_addr) is None:
        if time.monotonic() > deadline:
            raise RuntimeError("drill timed out waiting for the leader to serve")
        time.sleep(0.1)
    standby = spawn(
        ["fabric", "serve", xml, "--bind", standby_addr, "--standby",
         "--leader-id", "standby-1", *common],
        work / "standby.log",
    )
    procs.append(standby)
    workers = []
    for i in range(2):
        worker = spawn(
            [
                "fabric", "worker", seeds, "--id", f"w{i}",
                "--workdir", work / f"w{i}", "--poll", "0.2",
                "--call-timeout", "5", "--reconnect-budget", "20", "--quiet",
            ],
            work / f"worker-w{i}.log",
        )
        workers.append(worker)
    procs.extend(workers)
    return leader, standby, workers, leader_addr


def _settle_standby_fleet(standby, workers, deadline):
    rc = standby.wait(timeout=max(10.0, deadline - time.monotonic()))
    if rc != 0:
        raise RuntimeError(f"promoted standby exited with {rc}")
    for worker in workers:
        try:
            worker.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            worker.terminate()


def scenario_kill_leader(args, work, xml, ref, procs, deadline):
    from repro.campaign.journal import CampaignJournal

    leader, standby, workers, leader_addr = _spawn_fleet_with_standby(
        args, work, xml, procs, deadline,
    )
    wait_first_commit(leader_addr, deadline)
    journal = CampaignJournal(work / "fleet.campaign")
    while not (holds_pending_lease(journal, "w0") or holds_pending_lease(journal, "w1")):
        if time.monotonic() > deadline:
            raise RuntimeError("drill timed out waiting for a mid-batch lease")
        time.sleep(0.02)
    print("[drill] SIGKILL leader mid-batch (standby watching)")
    leader.kill()
    leader.wait()
    killed_at = time.monotonic()

    failures = []
    record = wait_takeover(work, killed_at, ELECTION_TTL + 10.0, failures)
    if record is not None and record.leader_id != "standby-1":
        failures.append(f"unexpected epoch-2 leader {record.leader_id!r}")
    _settle_standby_fleet(standby, workers, deadline)
    _, completions = journal_checks(work, args.replications, failures)
    if 2 not in {e.get("epoch") for e in completions}:
        failures.append("no run was committed under the successor's epoch")
    return failures


def scenario_partition_heal(args, work, xml, ref, procs, deadline):
    leader, standby, workers, leader_addr = _spawn_fleet_with_standby(
        args, work, xml, procs, deadline,
    )
    wait_first_commit(leader_addr, deadline)
    print("[drill] SIGSTOP leader (partition: alive but silent)")
    os.kill(leader.pid, signal.SIGSTOP)
    stopped_at = time.monotonic()

    failures = []
    record = wait_takeover(work, stopped_at, ELECTION_TTL + 10.0, failures)
    if record is not None and record.leader_id != "standby-1":
        failures.append(f"unexpected epoch-2 leader {record.leader_id!r}")
    print("[drill] SIGCONT leader (partition heals; stale leader wakes)")
    os.kill(leader.pid, signal.SIGCONT)
    try:
        leader_rc = leader.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        leader.terminate()
        failures.append("healed stale leader did not exit on deposition")
        leader_rc = None
    if leader_rc is not None and leader_rc != 3:
        failures.append(
            f"healed stale leader exited {leader_rc}, expected 3 (deposed)"
        )
    _settle_standby_fleet(standby, workers, deadline)
    journal_checks(work, args.replications, failures)
    leader_log = (work / "leader.log").read_text(encoding="utf-8")
    if "stopped leading" not in leader_log:
        failures.append("stale leader never reported its deposition")
    return failures


SCENARIOS = {
    "kill-worker": scenario_kill_worker,
    "kill-leader-with-standby": scenario_kill_leader,
    "partition-heal": scenario_partition_heal,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="kill-worker")
    parser.add_argument("--replications", type=int, default=12)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--workdir", type=Path, default=Path("fleet-drill"))
    parser.add_argument("--lease-ttl", type=float, default=3.0)
    parser.add_argument("--batch-size", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=420.0,
                        help="overall drill deadline in seconds")
    args = parser.parse_args()

    work = args.workdir
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    xml = work / "exp.xml"
    write_description(xml, args.replications, args.seed)

    print(f"[drill] scenario: {args.scenario}")
    print(f"[drill] local reference campaign ({args.replications} runs)")
    repro(
        "campaign", xml, "--jobs", "2", "--pool", "thread",
        "--dir", work / "local.campaign", "--db", work / "local.db", "--quiet",
    )
    ref = digest(work / "local.db")
    print(f"[drill] local digest:  {ref}")

    deadline = time.monotonic() + args.timeout
    procs = []
    try:
        failures = SCENARIOS[args.scenario](args, work, xml, ref, procs, deadline)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    flt = digest(work / "fleet.db")
    print(f"[drill] fleet digest:  {flt}")
    if flt != ref:
        failures.append("merged fleet digest diverged from the local campaign")

    if failures:
        for failure in failures:
            print(f"[drill] FAIL: {failure}")
        print("DIGEST-MISMATCH" if flt != ref else "FAILOVER-BROKEN")
        return 1
    print("FAILOVER-OK")
    print("DIGEST-MATCH")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Property tests: the fleet's lease state, rebuilt from the campaign journal.

Hypothesis drives the real settle path — :class:`LeaseDispatcher` over a
:class:`CampaignSession`, with a fake commit as in ``test_dispatch`` —
through grants, failures, TTL expiries, duplicate and stale acks, operator
quarantine and coordinator restarts (a resumed session plus a fresh
dispatcher that calls ``restore()``).  One drawn append crashes: a
test-only patch of :meth:`DurableLog.append` raises :class:`SimulatedCrash`
instead of writing it, and the coordinator restarts from what is on disk.
Two invariants must hold for *every* interleaving:

1. **Exactly-once commit.**  No run is journaled ``run_complete`` twice
   during the chaos, and each is journaled exactly once after the queue
   drains.
2. **The journal is the lease ledger.**  Folding any prefix of the
   journal (:meth:`LeaseStore.restore`) yields the open leases, with the
   same *unsettled* runs, that the live dispatcher held when that prefix
   was the whole file — and the same next lease id.
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.journal import CampaignJournal
from repro.campaign.session import CampaignSession
from repro.durable import DurableLog
from repro.fabric.dispatch import LeaseDispatcher
from repro.fabric.leases import LeaseStore
from repro.sd.processlib import build_two_party_description

RUNS = 6
TTL = 30.0
WORKERS = ["w1", "w2", "w3"]
DESC = build_two_party_description(name="ledger", seed=11, replications=RUNS, env_count=1)
APPEND = DurableLog.append


class SimulatedCrash(BaseException):
    """The process died inside a durable append (no ``except Exception``
    may swallow it)."""


class Model:
    """One campaign directory, its live coordinator, and the crash hook."""

    def __init__(self, root):
        self.root = root
        self.now = [1000.0]
        self.shard = set()  # the fake shard: what resume trusts
        self.crash_at = None  # the append to crash at, counting from 1
        self.appends = 0  # journal records on disk
        self.snapshots = []
        (root / "scope.json").write_text("{}", encoding="utf-8")

    def clock(self):
        return self.now[0]

    # -- the crash hook ------------------------------------------------
    def append(self, log, records):
        records = list(records)
        if self.crash_at is not None:
            self.crash_at -= 1
            if self.crash_at == 0:
                self.crash_at = None
                raise SimulatedCrash()
        APPEND(log, records, sync=False)  # a simulated crash needs no fsync
        self.appends += len(records)

    # -- coordinator lifecycle -----------------------------------------
    def start(self, resume):
        session = CampaignSession(DESC, self.root, max_attempts=RUNS * 10, resume=resume)
        self.dispatcher = LeaseDispatcher(
            session.open(),
            LeaseStore(ttl=TTL, clock=self.clock),
            batch_size=2,
            clock=self.clock,
        )
        if resume:
            self.dispatcher.restore()
            journaled = CampaignJournal(self.root).quarantined_workers()
            assert sorted(self.dispatcher.quarantined_workers) == journaled

    def step(self, op, arg):
        try:
            op(arg)
        except SimulatedCrash:
            self.start(resume=True)
        self.snapshot()

    # -- canonical state -----------------------------------------------
    def settled(self):
        return self.dispatcher.scheduler.done | self.dispatcher.scheduler.skipped

    def snapshot(self):
        settled = self.settled()
        held = {}
        for lease in self.dispatcher.leases.active():
            unsettled = tuple(r for r in lease.pending if r not in settled)
            if unsettled:
                held[lease.lease_id] = (lease.worker_id, unsettled)
        self.snapshots.append((self.appends, held, self.dispatcher.leases._seq))

    # -- operations ----------------------------------------------------
    def holder(self, run_id):
        for lease in self.dispatcher.leases.active():
            if run_id in lease.pending:
                return lease
        return None

    def commit(self, run_id, worker):
        def commit():
            self.shard.add(run_id)  # the shard transaction: the commit point
            self.dispatcher.session.settle_ok(run_id, worker, "shards/fake.db")

        return commit

    def grant(self, worker):
        lease, batch = self.dispatcher.grant(worker, 2)
        for ticket in batch:
            self.dispatcher.session.dispatch(ticket, worker, lease.lease_id)

    def ack(self, run_id):
        lease = self.holder(run_id)
        if lease is not None:
            self.dispatcher.ack_completed(
                lease.worker_id, lease.lease_id, run_id, self.commit(run_id, lease.worker_id)
            )

    def fail(self, run_id):
        lease = self.holder(run_id)
        if lease is not None:
            self.dispatcher.ack_failed(lease.worker_id, lease.lease_id, run_id, "boom")

    def stale(self, run_id):
        """An ack through any lease that ever held the run: a retried
        RPC, a zombie after expiry or revoke, a replay after restart."""
        for lease in self.dispatcher.leases._leases.values():
            if run_id in lease.run_ids:
                self.dispatcher.ack_completed(
                    lease.worker_id, lease.lease_id, run_id, self.commit(run_id, lease.worker_id)
                )
                return

    def expire(self, _=None):
        self.now[0] += TTL + 1.0
        self.dispatcher.sweep()

    def quarantine(self, worker):
        self.dispatcher.quarantine_worker(worker, "operator")

    def restart(self, _=None):
        self.start(resume=True)

    def drain(self):
        """Settle everything still outstanding."""
        for _ in range(100):
            if self.dispatcher.scheduler.finished:
                return
            leases = self.dispatcher.leases.active()
            for lease in leases:
                for run_id in lease.pending:
                    self.step(self.ack, run_id)
            if not leases:
                self.step(self.grant, "drainer")
        raise AssertionError("drain did not converge")


ops = st.lists(
    st.one_of(
        st.tuples(st.just("grant"), st.sampled_from(WORKERS)),
        st.tuples(st.just("ack"), st.integers(0, RUNS - 1)),
        st.tuples(st.just("fail"), st.integers(0, RUNS - 1)),
        st.tuples(st.just("stale"), st.integers(0, RUNS - 1)),
        st.tuples(st.just("expire"), st.none()),
        st.tuples(st.just("quarantine"), st.sampled_from(WORKERS)),
        st.tuples(st.just("restart"), st.none()),
    ),
    min_size=1,
    max_size=25,
)


def _completions(entries):
    return Counter(e["run_id"] for e in entries if e["type"] == "run_complete")


@given(ops=ops, crash_at=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_exactly_once_commits_and_prefix_replay(ops, crash_at, tmp_path_factory):
    root = tmp_path_factory.mktemp("journal")
    model = Model(root)
    journal = CampaignJournal(root)
    with mock.patch.object(
        DurableLog, "append", lambda log, records, sync=True: model.append(log, records)
    ), mock.patch(
        "repro.campaign.merge.shard_has_run", lambda _path, run_id: run_id in model.shard
    ):
        model.start(resume=False)
        model.snapshot()
        model.crash_at = crash_at
        for name, arg in ops:
            model.step(getattr(model, name), arg)
            # Invariant 1, continuously: no run is ever committed twice.
            assert all(n == 1 for n in _completions(journal.entries()).values())
        model.drain()

    entries = journal.entries()
    # Invariant 1, terminally: every run committed exactly once.
    assert _completions(entries) == Counter(range(RUNS))

    # Invariant 2: each journal prefix folds into the lease state the
    # live dispatcher held when the prefix was the whole file.
    for count, held, seq in model.snapshots:
        prefix = entries[:count]
        settled = {e["run_id"] for e in prefix if e["type"] == "run_complete"}
        store = LeaseStore(ttl=TTL, clock=model.clock)
        store.restore(prefix)
        folded = {
            lease.lease_id: (lease.worker_id, tuple(lease.pending))
            for lease in store.active()
        }
        assert all(not set(runs) & settled for _worker, runs in folded.values())
        assert folded == held, f"prefix of {count} records diverged"
        assert store._seq == seq

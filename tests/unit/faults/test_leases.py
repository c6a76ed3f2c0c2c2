"""Unit tests for fault leases: the store, and the controller's use of it."""

import json

import pytest

from repro import durable
from repro.cli import main as cli_main
from repro.durable import frame
from repro.faults.controller import FaultController
from repro.faults.leases import FaultLeaseStore, iter_lease_files, make_lease


# ----------------------------------------------------------------------
# make_lease
# ----------------------------------------------------------------------
def test_make_lease_ttl_and_id():
    lease = make_lease(
        node="n1", run_id=3, kind="msg_loss", fault_id=7,
        acquired_at=10.0, duration=5.0, ttl_margin=30.0,
        params={"probability": 0.5},
    )
    assert lease["lease_id"] == "n1/3/7"
    assert lease["expires_at"] == pytest.approx(45.0)  # 10 + 5 + 30
    assert lease["params"] == {"probability": 0.5}


def test_make_lease_unbounded_fault_has_no_expiry_without_margin():
    lease = make_lease(
        node="n1", run_id=None, kind="msg_delay", fault_id=1,
        acquired_at=2.0, duration=None,
    )
    assert lease["lease_id"] == "n1/-/1"
    assert lease["expires_at"] is None
    # A run-deadline margin alone still yields an advisory TTL.
    bounded = make_lease(
        node="n1", run_id=None, kind="msg_delay", fault_id=2,
        acquired_at=2.0, duration=None, ttl_margin=60.0,
    )
    assert bounded["expires_at"] == pytest.approx(62.0)


# ----------------------------------------------------------------------
# FaultLeaseStore
# ----------------------------------------------------------------------
def _lease(node="n1", fault_id=1, **kw):
    kw.setdefault("run_id", 0)
    kw.setdefault("kind", "msg_loss")
    kw.setdefault("acquired_at", 1.0)
    kw.setdefault("duration", 10.0)
    return make_lease(node=node, fault_id=fault_id, **kw)


def test_acquire_release_roundtrip(tmp_path):
    store = FaultLeaseStore(tmp_path / "leases")
    a, b = _lease(fault_id=1), _lease(fault_id=2)
    store.acquire(a)
    store.acquire(b)
    assert [ls["lease_id"] for ls in store.active("n1")] == [a["lease_id"], b["lease_id"]]
    store.release("n1", a["lease_id"], released_at=5.0)
    assert [ls["lease_id"] for ls in store.active("n1")] == [b["lease_id"]]
    assert store.active("ghost") == []


def test_reconcile_pops_and_compacts(tmp_path):
    store = FaultLeaseStore(tmp_path / "leases")
    store.acquire(_lease(fault_id=1))
    store.acquire(_lease(fault_id=2))
    store.release("n1", "n1/0/1", released_at=3.0)
    leaked = store.reconcile("n1")
    assert [ls["lease_id"] for ls in leaked] == ["n1/0/2"]
    # The file was compacted: no actives left, and a second sweep is a
    # no-op (idempotence is what makes the sweep crash-safe).
    assert store.active("n1") == []
    assert store.reconcile("n1") == []
    assert (tmp_path / "leases" / "n1.jsonl").read_text(encoding="utf-8") == ""


def test_truncated_tail_is_tolerated(tmp_path):
    store = FaultLeaseStore(tmp_path / "leases")
    store.acquire(_lease(fault_id=1))
    path = tmp_path / "leases" / "n1.jsonl"
    with open(path, "ab") as fh:
        fh.write(frame("", '{"op": "acquire", "lease": {"lease_id": "n1/0/2"}}')[:-14])
    # The torn append never installed its filter (lease-first ordering),
    # so dropping the unparseable line is safe.
    assert [ls["lease_id"] for ls in store.active("n1")] == ["n1/0/1"]
    assert [ls["lease_id"] for ls in store.reconcile("n1")] == ["n1/0/1"]


def test_sweeping_a_node_without_a_file_reads_nothing(tmp_path, monkeypatch):
    """The store lists its directory once; a node it never saw a file for
    is swept without opening anything."""
    FaultLeaseStore(tmp_path / "leases").acquire(_lease(node="n1"))
    store = FaultLeaseStore(tmp_path / "leases")
    opened = []
    real = durable.iter_frames
    monkeypatch.setattr(durable, "iter_frames", lambda path: opened.append(path) or real(path))
    for node in ("n2", "n3", "n4"):
        assert store.active(node) == []
        assert store.reconcile(node) == []
    assert opened == []
    assert not (tmp_path / "leases" / "n2.jsonl").exists()
    # The listed node is read; once compacted empty, it is not read again.
    assert [ls["lease_id"] for ls in store.reconcile("n1")] == ["n1/0/1"]
    assert len(opened) == 1
    assert store.reconcile("n1") == []
    assert len(opened) == 1


def test_inspect_leases_output(tmp_path, capsys):
    """``repro inspect --leases`` over a campaign root: one store per
    ``run_XXXXXX`` directory, the same lines as one store per file."""
    root = tmp_path / "campaign" / "leases"
    first = FaultLeaseStore(root / "run_000001")
    first.acquire(_lease(node="a1", fault_id=1, run_id=1))
    first.acquire(_lease(node="a1", fault_id=2, run_id=1, kind="msg_delay"))
    first.acquire(_lease(node="b2", fault_id=1, run_id=1, acquired_at=2.5))
    first.release("a1", "a1/1/1", released_at=3.0)
    second = FaultLeaseStore(root / "run_000002")
    second.acquire(_lease(node="a1", fault_id=1, run_id=2))
    second.reconcile("a1")
    assert cli_main(["inspect", str(tmp_path / "campaign"), "--leases"]) == 0
    assert capsys.readouterr().out == (
        "active lease: a1/1/2  kind=msg_delay  acquired_at=1.0\n"
        "active lease: b2/1/1  kind=msg_loss  acquired_at=2.5\n"
        "active leases: 2\n"
        "reconciled leases: 0\n"
    )


def test_iter_lease_files_both_layouts(tmp_path):
    serial = tmp_path / "serial"
    FaultLeaseStore(serial / "leases").acquire(_lease(node="a1"))
    campaign = tmp_path / "campaign"
    FaultLeaseStore(campaign / "leases" / "run_000002").acquire(_lease(node="b2"))
    assert [(p.name, n) for p, n in iter_lease_files(serial)] == [("a1.jsonl", "a1")]
    assert [n for _p, n in iter_lease_files(campaign)] == ["b2"]
    assert list(iter_lease_files(tmp_path / "nowhere")) == []


# ----------------------------------------------------------------------
# Controller integration
# ----------------------------------------------------------------------
@pytest.fixture
def leased(pair_net, rngs, tmp_path):
    sim, _medium, a, _b = pair_net
    ctrl = FaultController(sim, a, rngs, lambda *args, **kw: None)
    ctrl.set_run(0)
    store = FaultLeaseStore(tmp_path / "leases")
    assert ctrl.attach_lease_store(store, ttl_margin=60.0) == []
    return sim, ctrl, a, store


def test_start_acquires_and_stop_releases(leased):
    _sim, ctrl, a, store = leased
    fid = ctrl.start("msg_loss", {"probability": 0.5})
    active = store.active(a.name)
    assert len(active) == 1
    assert active[0]["kind"] == "msg_loss"
    assert active[0]["run_id"] == 0
    assert active[0]["expires_at"] is not None  # margin-only TTL
    ctrl.stop(fid)
    assert store.active(a.name) == []


def test_auto_stop_releases_lease(leased):
    sim, ctrl, a, store = leased
    ctrl.start("msg_loss", {"probability": 0.5, "duration": 2.0})
    assert len(store.active(a.name)) == 1
    sim.run(until=3.0)
    assert store.active(a.name) == []


def test_stop_all_releases_leases(leased):
    _sim, ctrl, a, store = leased
    ctrl.start("msg_loss", {"probability": 0.5})
    ctrl.start("msg_delay", {"delay": 0.1})
    assert len(store.active(a.name)) == 2
    assert ctrl.stop_all() == []
    assert store.active(a.name) == []


def test_failed_revert_keeps_lease_for_next_sweep(leased):
    _sim, ctrl, a, store = leased
    ctrl.start("msg_loss", {"probability": 0.5})

    def wedged(_rule_id):
        raise RuntimeError("interface wedged")

    original = a.interface.remove_filter
    a.interface.remove_filter = wedged
    errors = ctrl.stop_all()
    assert len(errors) == 1
    # The revert failed, so the lease must stay visible on disk ...
    assert len(store.active(a.name)) == 1
    # ... until a later sweep retries (the interface recovered here).
    a.interface.remove_filter = original
    leaked = ctrl.reconcile_leases()
    assert [ls["kind"] for ls in leaked] == ["msg_loss"]
    assert leaked[0]["reconciled_at"] is not None
    assert store.active(a.name) == []


def test_reconcile_removes_still_installed_filter(leased):
    """Watchdog-abort shape: the process survives, the filter is live."""
    _sim, ctrl, a, store = leased
    ctrl.start("msg_loss", {"probability": 0.5})
    assert len(a.interface.filters) == 1
    leaked = ctrl.reconcile_leases()
    assert len(leaked) == 1
    assert a.interface.filters == []
    assert ctrl._active == {}
    assert store.active(a.name) == []


def test_lease_written_before_filter_installs(leased):
    """Crash between acquire and install leaves a lease without a filter
    (the sweep's no-op case) — never a filter without a lease."""
    _sim, ctrl, a, store = leased

    def exploding(_flt):
        raise RuntimeError("crash during install")

    a.interface.add_filter = exploding
    with pytest.raises(RuntimeError):
        ctrl.start("msg_loss", {"probability": 0.5})
    assert len(store.active(a.name)) == 1
    assert ctrl._active == {}
    # The sweep converges back to zero without touching any filter.
    assert len(ctrl.reconcile_leases()) == 1
    assert store.active(a.name) == []


def test_attach_sweeps_previous_crash(pair_net, rngs, tmp_path):
    """A fresh controller (post-crash process) sweeps on attach."""
    sim, _medium, a, _b = pair_net
    store = FaultLeaseStore(tmp_path / "leases")
    store.acquire(
        make_lease(node=a.name, run_id=4, kind="iface_fault", fault_id=9,
                   acquired_at=0.5, duration=600.0)
    )
    ctrl = FaultController(sim, a, rngs, lambda *args, **kw: None)
    leaked = ctrl.attach_lease_store(store)
    assert [ls["lease_id"] for ls in leaked] == [f"{a.name}/4/9"]
    assert store.active(a.name) == []


def test_attach_reconciles_a_file_leaked_by_an_earlier_store(pair_net, rngs, tmp_path):
    """A crashed attempt's store is gone; the next one finds its file in
    the listing taken at construction."""
    sim, _medium, a, _b = pair_net
    FaultLeaseStore(tmp_path / "leases").acquire(
        make_lease(node=a.name, run_id=4, kind="msg_loss", fault_id=3,
                   acquired_at=0.5, duration=600.0)
    )
    ctrl = FaultController(sim, a, rngs, lambda *args, **kw: None)
    leaked = ctrl.attach_lease_store(FaultLeaseStore(tmp_path / "leases"))
    assert [ls["lease_id"] for ls in leaked] == [f"{a.name}/4/3"]
    assert FaultLeaseStore(tmp_path / "leases").active(a.name) == []


def test_lease_acquired_after_construction_is_found_by_the_next_sweep(
    pair_net, rngs, tmp_path
):
    """Watchdog-abort shape: the directory was empty when the store listed
    it, the lease came later, and the ``run_init`` sweep still finds it."""
    sim, _medium, a, _b = pair_net
    store = FaultLeaseStore(tmp_path / "leases")
    ctrl = FaultController(sim, a, rngs, lambda *args, **kw: None)
    ctrl.set_run(0)
    assert ctrl.attach_lease_store(store) == []
    assert list((tmp_path / "leases").iterdir()) == []
    ctrl.start("msg_loss", {"probability": 0.5})
    ctrl.set_run(1)
    assert [ls["run_id"] for ls in ctrl.reconcile_leases()] == [0]
    assert a.interface.filters == []


def test_controller_without_store_is_unchanged(pair_net, rngs):
    sim, _medium, a, _b = pair_net
    ctrl = FaultController(sim, a, rngs, lambda *args, **kw: None)
    ctrl.set_run(0)
    assert ctrl.reconcile_leases() == []
    fid = ctrl.start("msg_loss", {"probability": 0.5})
    assert ctrl.stop(fid)


def test_lease_file_is_valid_jsonl(leased):
    _sim, ctrl, a, store = leased
    ctrl.start("msg_loss", {"probability": 0.5})
    ctrl.stop_all()
    lines = (store.root / f"{a.name}.jsonl").read_text(encoding="utf-8").splitlines()
    ops = [json.loads(line.split("\t")[1])["op"] for line in lines]
    assert ops == ["acquire", "release"]

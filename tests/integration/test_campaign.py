"""Integration: the parallel campaign engine's determinism and recovery.

* A campaign executed with 4 workers produces the same level-3 database —
  byte-for-byte, modulo nothing — as the same plan with 1 worker: the
  Sec. IV-C1 repeatability guarantee survives concurrency.
* A campaign killed mid-flight resumes from its write-ahead journal,
  re-executes only the unfinished runs and converges to the identical
  database.  A run is committed when its shard holds it: resume and
  merge never read a staging store.
* The CLI ``campaign`` subcommand drives the same machinery end to end.
* One pure-DES run owns the interpreter: runs on two threads of one
  process take turns, with the cyclic collector paused during each.
"""

import gc
import shutil
import sys
import threading
import time
import weakref

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignJournal,
    database_digest,
    merge_campaign,
    run_campaign,
)
from repro.cli import main as cli_main
from repro.core import master
from repro.core.errors import CampaignError, ExecutionError, RecoveryError, StorageError
from repro.core.master import ExperiMaster, build_run_spec, execute_spec_run
from repro.core.xmlio import description_to_xml
from repro.fabric import FabricCoordinator, FabricWorker
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import RunShard


def _desc(seed=31, replications=20, **kwargs):
    kwargs.setdefault("env_count", 1)
    return build_two_party_description(
        name="campaign-it",
        seed=seed,
        replications=replications,
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The 1-worker campaign over the 20-run plan: digest + directory."""
    root = tmp_path_factory.mktemp("serial")
    result = run_campaign(
        _desc(),
        root / "campaign",
        db_path=root / "ref.db",
        jobs=1,
        pool="thread",
    )
    assert len(result.plan) >= 20
    assert result.executed_runs == list(range(len(result.plan)))
    return database_digest(root / "ref.db"), root


@pytest.fixture(scope="module")
def small_reference(tmp_path_factory):
    """The 1-worker campaign over the 4-run plan: digest + directory."""
    root = tmp_path_factory.mktemp("small")
    run_campaign(
        _desc(replications=4),
        root / "campaign",
        db_path=root / "ref.db",
        jobs=1,
        pool="thread",
    )
    return database_digest(root / "ref.db"), root


def _abort_after_two(campaign_dir):
    with pytest.raises(CampaignError, match="abort"):
        run_campaign(
            _desc(replications=4), campaign_dir, jobs=2, pool="thread", abort_after_runs=2
        )
    return CampaignJournal(campaign_dir).state().completed


def _resume(campaign_dir, db_path):
    return CampaignEngine(
        _desc(replications=4),
        campaign_dir,
        jobs=2,
        pool="thread",
        resume=True,
    ).execute(db_path=db_path)


def test_four_workers_byte_identical_to_one(serial_reference, tmp_path):
    ref_digest, _ = serial_reference
    result = run_campaign(
        _desc(),
        tmp_path / "campaign",
        db_path=tmp_path / "par.db",
        jobs=4,
        pool="thread",
    )
    assert result.jobs == 4
    assert database_digest(tmp_path / "par.db") == ref_digest


def test_kill_and_resume_converges(serial_reference, tmp_path):
    ref_digest, _ = serial_reference
    desc = _desc()
    with pytest.raises(CampaignError, match="abort"):
        run_campaign(desc, tmp_path / "campaign", jobs=4, pool="thread", abort_after_runs=7)
    journal = CampaignJournal(tmp_path / "campaign")
    staged_before = set(journal.state().completed)
    assert 0 < len(staged_before) < len(journal.entries())
    assert not journal.state().complete
    # Seal was never reached, yet the aborted session left its snapshot.
    assert (tmp_path / "campaign" / "metrics.json").exists()

    # Resuming without resume=True must refuse (a journal exists).
    with pytest.raises(RecoveryError, match="resume"):
        run_campaign(desc, tmp_path / "campaign", jobs=4, pool="thread")

    result = CampaignEngine(
        desc,
        tmp_path / "campaign",
        jobs=4,
        pool="thread",
        resume=True,
    ).execute(db_path=tmp_path / "resumed.db")
    assert set(result.skipped_runs) == staged_before
    assert set(result.executed_runs).isdisjoint(staged_before)
    assert len(result.skipped_runs) + len(result.executed_runs) == len(result.plan)
    assert database_digest(tmp_path / "resumed.db") == ref_digest


def test_resume_after_staging_is_deleted_reexecutes_no_staged_run(small_reference, tmp_path):
    ref_digest, _ = small_reference
    staged = set(_abort_after_two(tmp_path / "campaign"))
    shutil.rmtree(tmp_path / "campaign" / "staging")  # staging is scratch

    result = _resume(tmp_path / "campaign", tmp_path / "out.db")
    assert set(result.skipped_runs) == staged
    assert set(result.executed_runs).isdisjoint(staged)
    assert database_digest(tmp_path / "out.db") == ref_digest


def test_resume_reexecutes_a_journaled_run_its_shard_lost(small_reference, tmp_path):
    ref_digest, _ = small_reference
    victim_id, victim = max(_abort_after_two(tmp_path / "campaign").items())
    with RunShard(tmp_path / "campaign" / victim["shard"]) as shard:
        with shard.replacing_run(victim_id):
            pass  # the run's rows are gone, its journal entry is not

    result = _resume(tmp_path / "campaign", tmp_path / "out.db")
    assert victim_id in result.executed_runs
    assert victim_id not in result.skipped_runs
    assert database_digest(tmp_path / "out.db") == ref_digest


def test_a_failed_merge_leaves_no_database(small_reference, tmp_path):
    ref_digest, root = small_reference
    campaign = shutil.copytree(root / "campaign", tmp_path / "campaign")
    (campaign / "shards").rename(tmp_path / "shards-aside")
    with pytest.raises(StorageError, match="shard database missing"):
        merge_campaign(campaign, tmp_path / "out.db")
    assert not (tmp_path / "out.db").exists()

    (tmp_path / "shards-aside").rename(campaign / "shards")
    assert database_digest(merge_campaign(campaign, tmp_path / "out.db")) == ref_digest


def test_merge_campaign_rebuilds_database(serial_reference, tmp_path):
    ref_digest, root = serial_reference
    rebuilt = merge_campaign(root / "campaign", tmp_path / "again.db")
    assert database_digest(rebuilt) == ref_digest


def test_merge_campaign_requires_completion(tmp_path):
    with pytest.raises(CampaignError, match="not complete"):
        merge_campaign(tmp_path, tmp_path / "out.db")


def test_max_parallel_caps_requested_jobs(tmp_path):
    desc = _desc(replications=4, special_params={"max_parallel": 2})
    result = run_campaign(desc, tmp_path / "campaign", jobs=8, pool="thread")
    assert result.jobs == 2


def test_process_pool_matches_thread_pool(tmp_path):
    desc = _desc(replications=4)
    a = run_campaign(desc, tmp_path / "t", db_path=tmp_path / "t.db", jobs=2, pool="thread")
    b = run_campaign(desc, tmp_path / "p", db_path=tmp_path / "p.db", jobs=2, pool="process")
    assert a.pool == "thread" and b.pool == "process"
    assert database_digest(tmp_path / "t.db") == database_digest(tmp_path / "p.db")


def test_cli_campaign_subcommand(tmp_path, capsys):
    xml = tmp_path / "exp.xml"
    xml.write_text(description_to_xml(_desc(replications=3)), encoding="utf-8")
    rc = cli_main(
        [
            "campaign",
            str(xml),
            "--dir",
            str(tmp_path / "campaign"),
            "--db",
            str(tmp_path / "cli.db"),
            "--jobs",
            "2",
            "--pool",
            "thread",
            "--quiet",
        ],
    )
    assert rc == 0
    assert (tmp_path / "cli.db").exists()
    assert CampaignJournal(tmp_path / "campaign").state().complete
    # merge-only rebuilds the database from the shards and scope.json alone
    shutil.rmtree(tmp_path / "campaign" / "staging")
    rc = cli_main(
        [
            "campaign",
            str(xml),
            "--dir",
            str(tmp_path / "campaign"),
            "--db",
            str(tmp_path / "cli2.db"),
            "--merge-only",
        ],
    )
    assert rc == 0
    assert database_digest(tmp_path / "cli.db") == database_digest(tmp_path / "cli2.db")


# ----------------------------------------------------------------------
# The run turnstile: one pure-DES run computes per interpreter
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pair_xml():
    return description_to_xml(_desc(replications=2))


@pytest.fixture(scope="module")
def pair_reference(tmp_path_factory):
    """Digest of the 1-worker campaign over the 2-run plan."""
    root = tmp_path_factory.mktemp("pair")
    run_campaign(_desc(replications=2), root / "campaign", db_path=root / "ref.db", jobs=1)
    return database_digest(root / "ref.db")


@pytest.fixture
def executions(monkeypatch):
    """Every ``ExperiMaster.execute`` call: its wall interval, whether the
    cyclic collector was on inside it and a weak reference to its kernel.
    Each call dwells a moment so two runs computing at once would overlap."""
    seen = []
    original = ExperiMaster.execute

    def probed(self):
        start, collecting = time.monotonic(), gc.isenabled()
        time.sleep(0.05)
        try:
            return original(self)
        finally:
            seen.append(
                {
                    "start": start,
                    "end": time.monotonic(),
                    "gc": collecting,
                    "world": weakref.ref(self.sim),
                }
            )

    monkeypatch.setattr(ExperiMaster, "execute", probed)
    return seen


@pytest.fixture
def fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(None)


def _two_worker_fleet(desc, root):
    coordinator = FabricCoordinator(desc, root / "campaign", port=0, batch_size=1, lease_ttl=10.0)
    threads = []
    with coordinator:
        for i in range(2):
            worker = FabricWorker(
                coordinator.address, f"w{i}", root / f"w{i}", capacity=1, poll_interval=0.05
            )
            threads.append(threading.Thread(target=worker.run_forever, daemon=True))
            threads[-1].start()
        coordinator.run_until_complete(db_path=root / "out.db", timeout=120.0)
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.mark.parametrize("transport", ["thread pool", "fleet"])
def test_two_threads_take_turns(
    transport, pair_reference, executions, fresh_registry, tmp_path, capsys
):
    if transport == "fleet":
        _two_worker_fleet(_desc(replications=2), tmp_path)
    else:
        run_campaign(
            _desc(replications=2),
            tmp_path / "campaign",
            db_path=tmp_path / "out.db",
            jobs=2,
            pool="thread",
        )
    first, second = sorted(executions, key=lambda call: call["start"])
    assert first["end"] <= second["start"]
    assert database_digest(tmp_path / "out.db") == pair_reference
    # Each run observed its wait, a zero wait included; the later one
    # waited out the earlier one.
    capsys.readouterr()
    assert cli_main(["metrics", str(tmp_path / "campaign")]) == 0
    prom = dict(
        line.rsplit(" ", 1)
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("repro_run_turnstile_wait_seconds_")
    )
    assert prom["repro_run_turnstile_wait_seconds_count"] == "2"
    assert float(prom["repro_run_turnstile_wait_seconds_sum"]) > 0


def test_turns_hold_under_fast_thread_switching(pair_xml, executions, tmp_path):
    specs = [build_run_spec(tmp_path, pair_xml, i % 2, f"t{i}") for i in range(3)]
    threads = [threading.Thread(target=execute_spec_run, args=(s,), daemon=True) for s in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    calls = sorted(executions, key=lambda call: call["start"])
    assert len(calls) == 3
    assert all(a["end"] <= b["start"] for a, b in zip(calls, calls[1:]))


def test_the_collector_is_paused_only_inside_a_run(pair_xml, executions, tmp_path):
    assert gc.isenabled()
    execute_spec_run(build_run_spec(tmp_path, pair_xml, 0, "t0"))
    assert [call["gc"] for call in executions] == [False]
    assert gc.isenabled()
    # The run's world never left the young generation.
    gc.collect(0)
    assert executions[0]["world"]() is None
    # A host program that turned the collector off keeps it off.
    gc.disable()
    try:
        execute_spec_run(build_run_spec(tmp_path, pair_xml, 1, "t0"))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_failed_run_releases_the_turnstile_and_the_collector(pair_xml, tmp_path):
    with pytest.raises(ExecutionError, match="plan has no run 99"):
        execute_spec_run(build_run_spec(tmp_path, pair_xml, 99, "t0"))
    assert not master._RUN_TURNSTILE.locked()
    assert gc.isenabled()


def test_a_realtime_run_takes_neither_the_turnstile_nor_the_pause(pair_xml, executions, tmp_path):
    results = []
    spec = build_run_spec(tmp_path, pair_xml, 0, "t0", realtime_factor=200.0)
    runner = threading.Thread(target=lambda: results.append(execute_spec_run(spec)), daemon=True)
    with master._RUN_TURNSTILE:
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive()
    assert results[0]["run_id"] == 0
    assert [call["gc"] for call in executions] == [True]


def test_runs_leave_no_tracked_objects_behind(pair_xml, tmp_path):
    def run(run_id):
        execute_spec_run(build_run_spec(tmp_path, pair_xml, run_id, "t0"))

    run(0)  # warm: lazy imports, the testbed frame, metric families
    gc.collect()
    before = len(gc.get_objects())
    for i in range(10):
        run(i % 2)
    gc.collect()
    assert len(gc.get_objects()) - before < 100


"""One 24-run paper description through every local way to run it.

One campaign per way (two workers, one worker, a thread pool, a process
pool, ``repro run``), shared by the module: each test checks what one of
them must agree on.
"""

import shutil

import pytest

from tests.cli import digest, has_line, prometheus, repro

pytestmark = pytest.mark.ci

CAMPAIGNS = {
    "exp": ("campaign", "--jobs", "2"),
    "serial": ("campaign", "--jobs", "1", "--quiet"),
    "thread": ("campaign", "--jobs", "2", "--pool", "thread"),
    "process": ("campaign", "--jobs", "2", "--pool", "process", "--quiet"),
    "run": ("run", "--quiet"),
}


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """The work directory; ``<name>.campaign`` and ``<name>.db`` per campaign,
    and each campaign's report in ``<name>.out``."""
    work = tmp_path_factory.mktemp("paper")
    (work / "exp.xml").write_text(repro("paper-xml", "--replications", "4", cwd=work).stdout)
    for name, (command, *flags) in CAMPAIGNS.items():
        proc = repro(command, "exp.xml", "--dir", f"{name}.campaign", "--db", f"{name}.db",
                     *flags, cwd=work)
        (work / f"{name}.out").write_text(proc.stdout)
    return work


def test_two_workers_then_a_merge_only_rerun(paper):
    repro("inspect", "exp.db", cwd=paper)
    repro("campaign", "exp.xml", "--jobs", "2", "--dir", "exp.campaign", "--db", "exp2.db",
          "--merge-only", cwd=paper)


def test_staging_is_scratch(paper, tmp_path):
    """A merge from the shards and scope.json alone gives the campaign's digest."""
    shutil.copytree(paper / "exp.campaign", tmp_path / "exp.campaign")
    shutil.rmtree(tmp_path / "exp.campaign" / "staging")
    repro("campaign", paper / "exp.xml", "--dir", "exp.campaign", "--db", "again.db",
          "--merge-only", cwd=tmp_path)
    assert digest(tmp_path / "again.db", paper) == digest("exp.db", paper)


def test_one_description_three_pools_one_digest(paper):
    # jobs=1 reuses one testbed frame across runs, the thread pool shares
    # one between workers, the process pool builds one per process.
    digests = [digest(f"{name}.db", paper) for name in ("serial", "thread", "process")]
    assert len(digests) == 3 and len(set(digests)) == 1
    assert 'repro_testbed_frames_total{outcome="reused"}' in prometheus("serial.campaign", paper)


def test_repro_run_is_the_one_worker_campaign(paper):
    assert digest("run.db", paper) == digest("exp.db", paper)


def test_threads_take_turns(paper):
    """Two pool threads in one interpreter compute one pure-DES run at a
    time; each run's wait for the run turnstile lands in one histogram."""
    assert digest("thread.db", paper) == digest("process.db", paper)
    text = prometheus("thread.campaign", paper)
    assert has_line(r"^# TYPE repro_run_turnstile_wait_seconds histogram$", text)
    assert has_line(r"^repro_run_turnstile_wait_seconds_count ", text)


def test_trace_and_metrics_of_a_live_campaign(paper):
    report = (paper / "thread.out").read_text()
    assert has_line(r"^\[24/24\]", report) and "run 23 ok" in report
    trace = repro("trace", "thread.db", cwd=paper).stdout
    assert "runs with spans: 24" in trace and "p95=" in trace and "critical path" in trace
    repro("trace", "thread.db", "--run", "0", "--critical-path", cwd=paper)
    text = prometheus("thread.campaign", paper)
    assert has_line(r"^repro_campaign_runs_completed_total 24$", text)
    assert has_line(r"^repro_campaign_worker_busy_seconds\{worker=", text)

"""Unit tests for the campaign report the session keeps: counts, progress
lines, rate and ETA, the per-worker busy clock, the phase summary (the
``clock`` and ``registry`` fixtures live in this package's conftest)."""

from tests.unit.campaign.test_session import _open, _run_for_real


def _start(session, worker):
    ticket = session.scheduler.next_ticket()
    session.dispatch(ticket, worker, None)
    return ticket


def _ok(session, run_id, worker, **kwargs):
    session.settle_ok(run_id, worker, f"shards/{worker}.db", **kwargs)


def _busy(registry, worker):
    gauge = registry.gauge("repro_campaign_worker_busy_seconds", labels=("worker",))
    return gauge.value(worker=worker)


def test_counters_and_in_flight(tmp_path, clock):
    lines = []
    session = _open(tmp_path, 10, progress=lines.append, max_attempts=2)
    _start(session, "w0")
    _start(session, "w1")
    clock.now += 2.0
    _ok(session, 0, "w0", duration=2.0)
    assert lines[-1].endswith("1 in flight  run 0 ok (2.00s, w0)")
    assert session.summary()["completed"] == 1 and session.summary()["skipped"] == 0
    assert session.settle_failed(1, "w1", "boom", 1)
    assert "in flight" not in lines[-1]
    assert (session.summary()["retried"], session.summary()["failed"]) == (1, 0)
    retry = _start(session, "w1")
    assert retry.run_id == 1
    assert not session.settle_failed(1, "w1", "boom again", retry.attempts)
    assert lines[-1].endswith("run 1 FAILED: boom again")
    assert session.summary()["failed"] == 1


def test_resume_counts_staged_runs(tmp_path, clock):
    first = _open(tmp_path, 3)
    _run_for_real(first, first.scheduler.next_ticket())
    lines = []
    resumed = _open(tmp_path, 3, resume=True, progress=lines.append)
    assert lines == ["resume: 1/3 runs already staged"]
    assert resumed.summary()["skipped"] == 1
    clock.now += 1.0
    ticket = _start(resumed, "w0")
    _ok(resumed, ticket.run_id, "w0")
    assert lines[-1].startswith("[2/3]")
    assert (resumed.summary()["completed"], resumed.summary()["skipped"]) == (1, 1)


def test_throughput_and_eta_use_injected_clock(tmp_path, clock):
    lines = []
    session = _open(tmp_path, 10, progress=lines.append)
    clock.now += 5.0
    for run_id in range(2):
        _start(session, "w0")
        _ok(session, run_id, "w0", duration=1.0)
    # 2 runs in 5 s is 0.4 runs/s; 8 remaining runs take 20 s.
    assert lines[-1] == "[ 2/10]  0.40 runs/s  eta 20s  run 1 ok (1.00s, w0)"


def test_progress_lines_reach_the_sink(tmp_path, clock):
    first = _open(tmp_path, 3)
    _run_for_real(first, first.scheduler.next_ticket())
    lines = []
    session = _open(tmp_path, 3, resume=True, progress=lines.append)
    clock.now += 1.0
    _run_for_real(session, session.scheduler.next_ticket())
    _run_for_real(session, session.scheduler.next_ticket())
    session.seal(db_path=tmp_path / "out.db")
    assert lines[0] == "resume: 1/3 runs already staged"
    assert any("run 1 ok" in line for line in lines)
    assert lines[-1] == "merging 3 runs into the experiment database"
    assert all(isinstance(line, str) for line in lines)


def test_worker_summary_is_sorted_and_complete(tmp_path, clock, registry):
    session = _open(tmp_path, 10)
    for run_id, worker in ((0, "w1"), (1, "w0"), (2, "w1")):
        _start(session, worker)
        clock.now += 0.5
        _ok(session, run_id, worker, duration=0.5)
    # Per-worker state is the busy gauge, one series per worker that
    # settled anything; the exposition orders them.
    values = registry.snapshot()["repro_campaign_worker_busy_seconds"]["values"]
    assert sorted(values) == ['["w0"]', '["w1"]']
    assert (_busy(registry, "w0"), _busy(registry, "w1")) == (0.5, 1.0)
    assert session.summary()["completed"] == 3


# ----------------------------------------------------------------------
# Regressions: no rate before a measurable interval, busy-clock resets
# ----------------------------------------------------------------------
def test_throughput_zero_before_campaign_started(tmp_path, clock):
    """No rate and no ETA until a completion over a non-zero interval: a
    failure first, or a completion at the open instant, must not divide
    by zero or advertise a bogus ETA."""
    lines = []
    clock.now = 9000.0  # far from zero, like any real monotonic reading
    session = _open(tmp_path, 10, progress=lines.append)
    clock.now += 3.0
    _start(session, "w0")
    session.settle_failed(0, "w0", "boom", 1)
    assert lines[-1] == "[ 0/10]  run 0 failed, retrying: boom"
    instant = _open(tmp_path / "instant", 10, progress=lines.append)
    _start(instant, "w0")
    _ok(instant, 0, "w0")
    assert lines[-1] == "[ 1/10]  run 0 ok (0.00s, w0)"


def test_eta_uses_this_sessions_rate_after_start(tmp_path, clock):
    lines = []
    clock.now = 9000.0
    session = _open(tmp_path, 10, progress=lines.append)
    clock.now += 4.0
    _start(session, "w0")
    _ok(session, 0, "w0", duration=4.0)
    assert lines[-1] == "[ 1/10]  0.25 runs/s  eta 36s  run 0 ok (4.00s, w0)"


def test_worker_since_resets_on_completion(tmp_path, clock, registry):
    """Idle time between a settle and the next dispatch is not busy."""
    session = _open(tmp_path, 10)
    _start(session, "w0")
    clock.now += 3.0
    _ok(session, 0, "w0")
    assert _busy(registry, "w0") == 3.0
    clock.now += 2.0  # idle
    _start(session, "w0")
    clock.now += 1.0
    _ok(session, 1, "w0")
    assert _busy(registry, "w0") == 4.0


def test_worker_since_resets_on_failure(tmp_path, clock, registry):
    session = _open(tmp_path, 10)
    _start(session, "w0")
    clock.now += 1.5
    session.settle_failed(0, "w0", "boom", 1)
    assert _busy(registry, "w0") == 1.5
    clock.now += 5.0  # idle
    _start(session, "w0")
    clock.now += 1.0
    _ok(session, 0, "w0")
    assert _busy(registry, "w0") == 2.5


def test_busy_seconds_accumulates_per_worker(tmp_path, clock, registry):
    session = _open(tmp_path, 10, max_attempts=1)
    _start(session, "w0")
    clock.now += 2.0
    _ok(session, 0, "w0", duration=2.0)
    _start(session, "w0")
    clock.now += 3.0
    session.settle_failed(1, "w0", "boom", 1)
    # A settle with no run of this worker's in flight adds nothing.
    stray = session.scheduler.next_ticket()
    clock.now += 7.0
    session.settle_failed(stray.run_id, "w0", "spurious", 1)
    assert _busy(registry, "w0") == 5.0


def test_phase_aggregation_in_summary(tmp_path, clock):
    session = _open(tmp_path, 10)
    for run_id, phases in (
        (0, {"preparation": 1.0, "execution": 4.0}),
        (1, {"preparation": 3.0, "execution": 2.0, "cleanup": 0.5}),
    ):
        _start(session, "w0")
        _ok(session, run_id, "w0", phases=phases)
    phases = session.summary()["phases"]
    assert list(phases) == ["preparation", "execution", "cleanup"]
    assert phases["preparation"]["count"] == 2
    assert phases["preparation"]["p50"] == 1.0
    assert phases["execution"]["max"] == 4.0

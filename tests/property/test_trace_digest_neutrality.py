"""The observability layer is provably inert.

Tracing and metrics are on by default, so the burden of proof is theirs:
with tracing on, off, or any worker count, the level-3 Table-I digest and
the complete RNG schedule (the end state of every named stream the
platform drew from) must be byte-identical.  Span persistence may only
add rows to the ``RunTraces`` extension table, which the digest excludes
by design.  The same holds for the durable log's torn-tail counter, the
testbed-frame counter and the wire codec's fallback counter.
"""

import sqlite3
import types
import xmlrpc.client

from repro.campaign import database_digest, run_campaign
from repro.core import rpc, wire
from repro.durable import frame
from repro.obs.metrics import get_registry
from repro.obs.trace import TRACE_ENV_VAR
from repro.platforms import frame as frame_module
from repro.sd.processlib import build_two_party_description
from repro.storage.level2 import Level2Store
from repro.storage.level3 import store_level3

from tests.conftest import execute_plan


def _description(seed=501, replications=6, **kwargs):
    return build_two_party_description(
        name="trace-neutrality", seed=seed, replications=replications, env_count=1, **kwargs
    )


def _rng_schedule(platform):
    """End state of every RNG stream a run's execution touched.

    Any extra draw anywhere — one ``random()`` call from the tracing
    path — shifts the state of the stream it came from.
    """
    states = {
        repr(key): rng.getstate()
        for key, rng in platform.rngs._streams.items()
    }
    states["channel"] = platform.channel.rng.getstate()
    states["medium"] = platform.medium.rng.getstate()
    return states


def _execute(tmp_path, monkeypatch, trace_value, **kwargs):
    monkeypatch.setenv(TRACE_ENV_VAR, trace_value)
    desc = _description(**kwargs)
    platforms = execute_plan(desc, tmp_path / "l2")
    db_path = store_level3(Level2Store(tmp_path / "l2"), tmp_path / "exp.db")
    return database_digest(db_path), [_rng_schedule(p) for p in platforms], db_path


def _run_trace_rows(db_path):
    conn = sqlite3.connect(str(db_path))
    try:
        return conn.execute("SELECT COUNT(*) FROM RunTraces").fetchone()[0]
    finally:
        conn.close()


def test_digest_and_rng_schedule_identical_tracing_on_off(tmp_path, monkeypatch):
    digest_on, rng_on, db_on = _execute(tmp_path / "on", monkeypatch, "1")
    digest_off, rng_off, db_off = _execute(tmp_path / "off", monkeypatch, "0")
    assert digest_on == digest_off
    assert rng_on == rng_off
    # Tracing is not silently dead — it wrote spans, outside the digest.
    assert _run_trace_rows(db_on) > 0
    assert _run_trace_rows(db_off) == 0


def test_torn_tail_counter_moves_no_digest_and_no_rng_state(tmp_path, monkeypatch):
    """A crash tore the very first experiment-span append; executing over
    that store cuts the fragment (counted) and changes nothing else."""
    digest_clean, rng_clean, _ = _execute(tmp_path / "clean", monkeypatch, "1")
    torn = Level2Store(tmp_path / "torn" / "l2")
    torn.experiment_trace_path.parent.mkdir(parents=True)
    torn.experiment_trace_path.write_bytes(frame("", '{"name": "experiment_init"}')[:-5])
    counter = get_registry().counter("durable_torn_tails_total", labels=("log",))
    before = counter.value(log="traces.jsonl")
    digest_torn, rng_torn, _ = _execute(tmp_path / "torn", monkeypatch, "1")
    assert counter.value(log="traces.jsonl") >= before + 1
    assert digest_torn == digest_clean
    assert rng_torn == rng_clean


def test_frame_counter_moves_no_digest_and_no_rng_state(tmp_path, monkeypatch):
    """Built or reused, the testbed frame is invisible in the data."""
    counter = get_registry().counter("repro_testbed_frames_total", labels=("outcome",))

    def moved(since=(0, 0)):
        built, reused = counter.value(outcome="built"), counter.value(outcome="reused")
        return built - since[0], reused - since[1]

    monkeypatch.setattr(frame_module, "_memo", None)
    start = moved()
    digest_built, rng_built, _ = _execute(tmp_path / "built", monkeypatch, "1")
    runs = len(rng_built)
    assert moved(start) == (1, runs - 1)
    digest_reused, rng_reused, _ = _execute(tmp_path / "reused", monkeypatch, "1")
    assert moved(start) == (1, 2 * runs - 1)
    assert digest_reused == digest_built
    assert rng_reused == rng_built


def test_codec_fallback_counter_moves_no_digest_and_no_rng_state(tmp_path, monkeypatch):
    """One non-ASCII action parameter is beyond the wire grammar: the calls
    carrying it are decoded by the stdlib codec, counted — and the data are
    those of a run whose every message went through the stdlib codec."""
    counter = wire.fallback_counter()

    def moved(since=(0, 0)):
        encode, decode = counter.value(direction="encode"), counter.value(direction="decode")
        return encode - since[0], decode - since[1]

    start = moved()
    digest_plain, *_ = _execute(tmp_path / "plain", monkeypatch, "1")
    assert moved(start) == (0, 0)
    nasty = {"service_type": "_expé._tcp"}
    digest_fast, rng_fast, _ = _execute(tmp_path / "fast", monkeypatch, "1", **nasty)
    assert moved(start)[1] > 0
    monkeypatch.setattr(rpc, "wire", types.SimpleNamespace(
        Fault=wire.Fault,
        fallback_counter=wire.fallback_counter,
        loads=xmlrpc.client.loads,
        dumps=lambda params, methodname=None, methodresponse=False: xmlrpc.client.dumps(
            params, methodname, methodresponse, allow_none=True),
    ))
    digest_stdlib, rng_stdlib, _ = _execute(tmp_path / "stdlib", monkeypatch, "1", **nasty)
    assert digest_fast == digest_stdlib != digest_plain
    assert rng_fast == rng_stdlib


def test_campaign_digest_identical_for_tracing_and_jobs(tmp_path, monkeypatch):
    digests = {}
    for label, trace_value, jobs in (
        ("on-j1", "1", 1),
        ("on-j2", "1", 2),
        ("off-j2", "0", 2),
    ):
        monkeypatch.setenv(TRACE_ENV_VAR, trace_value)
        db_path = tmp_path / f"{label}.db"
        run_campaign(
            _description(),
            tmp_path / label,
            db_path=db_path,
            jobs=jobs,
            pool="thread",
        )
        digests[label] = database_digest(db_path)
    assert len(set(digests.values())) == 1
    # Per-run spans rode the shard merge into the merged database.
    assert _run_trace_rows(tmp_path / "on-j1.db") > 0
    assert _run_trace_rows(tmp_path / "on-j2.db") > 0
    assert _run_trace_rows(tmp_path / "off-j2.db") == 0


def test_traced_phase_spans_cover_every_run(tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_ENV_VAR, "1")
    _, _, db_path = _execute(tmp_path, monkeypatch, "1")
    conn = sqlite3.connect(str(db_path))
    try:
        rows = conn.execute(
            "SELECT RunID, Name, COUNT(*) FROM RunTraces "
            "WHERE Name IN ('preparation', 'execution', 'cleanup') "
            "GROUP BY RunID, Name"
        ).fetchall()
        run_count = conn.execute(
            "SELECT COUNT(DISTINCT RunID) FROM RunInfos"
        ).fetchone()[0]
    finally:
        conn.close()
    by_run = {}
    for run_id, name, count in rows:
        by_run.setdefault(run_id, set()).add(name)
        assert count == 1, (run_id, name)
    assert len(by_run) == run_count
    assert all(
        phases == {"preparation", "execution", "cleanup"}
        for phases in by_run.values()
    )

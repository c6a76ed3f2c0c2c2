"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.paper import full_paper_experiment_xml
from repro.sd.processlib import build_two_party_description
from repro.core.xmlio import description_to_xml

from tests.conftest import staging_store


@pytest.fixture
def desc_xml(tmp_path):
    path = tmp_path / "exp.xml"
    desc = build_two_party_description(name="cli-test", seed=3, replications=1, env_count=2)
    path.write_text(description_to_xml(desc), encoding="utf-8")
    return path


@pytest.fixture
def paper_xml(tmp_path):
    path = tmp_path / "paper.xml"
    path.write_text(full_paper_experiment_xml(replications=1), encoding="utf-8")
    return path


def test_validate_ok(desc_xml, capsys):
    assert main(["validate", str(desc_xml)]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out and "cli-test" in out


def test_validate_broken_description(tmp_path, capsys):
    path = tmp_path / "broken.xml"
    path.write_text(
        '<experiment name="b" seed="1">'
        "<processes><node_process>"
        '<actor id="a0"><actions><sd_frobnicate/></actions></actor>'
        "</node_process></processes></experiment>",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error:" in out


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "junk.xml"
    path.write_text("not xml at all", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_clean_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "ghost.xml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_describe_with_plan(desc_xml, capsys):
    assert main(["describe", str(desc_xml), "--plan"]) == 0
    out = capsys.readouterr().out
    assert "experiment 'cli-test'" in out
    assert "treatment plan" in out


def test_inspect_digest_of_a_missing_database_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing.db"
    assert main(["inspect", str(missing)]) == 2
    plain = capsys.readouterr().err
    assert main(["inspect", str(missing), "--digest"]) == 2
    assert capsys.readouterr().err == plain == f"error: no database at {missing}\n"
    assert not missing.exists()


def test_run_inspect_timeline_condition_import(desc_xml, tmp_path, capsys):
    campaign = tmp_path / "c"
    db = tmp_path / "exp.db"
    argv = ["run", str(desc_xml), "--dir", str(campaign), "--db", str(db), "--topology", "full"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign 'cli-test': 1 executed" in out and "(1 thread workers" in out
    assert db.exists()

    assert main(["inspect", str(db)]) == 0
    out = capsys.readouterr().out
    assert "discovery: 1/1 complete" in out

    assert main(["timeline", str(db), "--run", "0"]) == 0
    out = capsys.readouterr().out
    assert "t_R" in out and "legend:" in out

    assert main(["timeline", str(db), "--run", "99"]) == 1

    # Condition the run's level-2 staging store into a second database:
    # identical content, so importing both into the level-4 warehouse
    # dedups onto one catalogued experiment.
    db2 = tmp_path / "exp2.db"
    assert main(["condition", str(staging_store(campaign, 0).root), str(db2)]) == 0
    assert db2.exists()

    warehouse = tmp_path / "wh"
    assert main(["repo", "ingest", str(warehouse), str(db), str(db2)]) == 0
    out = capsys.readouterr().out
    assert out.count("ingested ") == 1 and "duplicate of experiment" in out
    assert "warehouse holds 1 experiment(s)" in out


def test_run_resume_flow(desc_xml, tmp_path, capsys):
    campaign = str(tmp_path / "c")
    assert main(["run", str(desc_xml), "--dir", campaign, "--quiet"]) == 0
    # A second plain run against the same campaign directory must refuse...
    assert main(["run", str(desc_xml), "--dir", campaign]) == 2
    assert "journal" in capsys.readouterr().err
    # ...and --resume on a completed campaign explains itself too.
    assert main(["run", str(desc_xml), "--dir", campaign, "--resume"]) == 2
    assert "already completed" in capsys.readouterr().err


def test_run_with_slp_protocol(tmp_path, capsys):
    from repro.sd.processlib import build_three_party_description

    path = tmp_path / "three.xml"
    desc = build_three_party_description(name="cli-slp", seed=5, replications=1, env_count=2)
    path.write_text(description_to_xml(desc), encoding="utf-8")
    db = tmp_path / "three.db"
    campaign = str(tmp_path / "c")
    argv = ["run", str(path), "--dir", campaign, "--db", str(db), "--protocol", "slp", "--quiet"]
    assert main(argv) == 0
    assert main(["inspect", str(db)]) == 0
    assert "1/1 complete" in capsys.readouterr().out


def test_paper_document_through_cli(paper_xml, tmp_path, capsys):
    assert main(["validate", str(paper_xml)]) == 0
    assert "6 runs" in capsys.readouterr().out


def test_run_realtime_flag(desc_xml, tmp_path, capsys):
    """--realtime uses the wall-clock-paced platform."""
    campaign = str(tmp_path / "rt")
    argv = ["run", str(desc_xml), "--dir", campaign, "--realtime", "500", "--topology", "full"]
    assert main([*argv, "--quiet"]) == 0
    from repro.campaign.journal import CampaignJournal

    assert CampaignJournal(campaign).state().complete


def test_paper_xml_command(capsys):
    assert main(["paper-xml", "--replications", "3", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert '<experiment name="paper-sd-two-party" seed="9">' in out
    assert ">3</replicationfactor>" in out
    # The emitted document is immediately loadable.
    from repro.core.xmlio import description_from_xml

    desc = description_from_xml(out)
    assert desc.factors.replication.count == 3


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ``format_help()`` of the three subcommands that share flags, recorded
# (COLUMNS=80) at the parent of the commit that declared each shared group
# once as an argparse parent parser, minus the flags deleted since.  ``run``
# was re-recorded when it became the one-worker campaign command and took
# the campaign-directory group in place of its own --store/--db/--resume.
RECORDED_HELP = {
    "run": """\
usage: repro run [-h] [--protocol {mdns,slp,hybrid,registry}]
                 [--topology {mesh,grid,line,full}] [--realtime FACTOR]
                 [--rpc-timeout SECS] [--run-deadline SECS] [--quiet]
                 [--dir CAMPAIGN_DIR] [--db DB] [--resume] [--max-retries N]
                 [--chaos-json FILE]
                 description

positional arguments:
  description           experiment XML file

options:
  -h, --help            show this help message and exit
  --protocol {mdns,slp,hybrid,registry}
                        SD protocol agents (default mdns)
  --topology {mesh,grid,line,full}
                        emulated mesh shape (default mesh)
  --realtime FACTOR     pace runs against the wall clock at this speed factor
  --rpc-timeout SECS    per-call control-channel deadline (overrides the
                        description's rpc_timeout; 0 disables)
  --run-deadline SECS   watchdog budget applied to each run phase
                        (preparation, execution, clean-up); 0 disables
  --quiet
  --dir CAMPAIGN_DIR    campaign directory: journal, staging stores and shards
                        (default: ./<name>.campaign)
  --db DB               merged level-3 SQLite database (default: <campaign
                        dir>/<name>.db)
  --resume              resume an aborted campaign found in --dir
  --max-retries N, --retries N
                        extra attempts per failed run (default 1); a run
                        failing on a dead node is re-queued this often before
                        the campaign reports it failed
  --chaos-json FILE     JSON list of control-plane fault entries to inject
                        (see repro.faults.control) — CI gauntlet and
                        resilience testing
""",
    "campaign": """\
usage: repro campaign [-h] [--dir CAMPAIGN_DIR] [--db DB] [--jobs JOBS]
                      [--pool {thread,process,auto}] [--resume] [--merge-only]
                      [--max-retries N] [--rpc-timeout SECS]
                      [--run-deadline SECS] [--chaos-json FILE]
                      [--abort-after N]
                      [--protocol {mdns,slp,hybrid,registry}]
                      [--topology {mesh,grid,line,full}] [--realtime FACTOR]
                      [--quiet]
                      description

positional arguments:
  description           experiment XML file

options:
  -h, --help            show this help message and exit
  --dir CAMPAIGN_DIR    campaign directory: journal, staging stores and shards
                        (default: ./<name>.campaign)
  --db DB               merged level-3 SQLite database (default: <campaign
                        dir>/<name>.db)
  --jobs JOBS, -j JOBS  worker count; capped by the description's max_parallel
                        special parameter (default 2)
  --pool {thread,process,auto}
                        worker pool kind (auto: processes for pure DES on
                        multi-core hosts, threads otherwise)
  --resume              resume an aborted campaign found in --dir
  --merge-only          only merge an already completed campaign's shards into
                        --db
  --max-retries N, --retries N
                        extra attempts per failed run (default 1); a run
                        failing on a dead node is re-queued this often before
                        the campaign reports it failed
  --rpc-timeout SECS    per-call control-channel deadline (overrides the
                        description's rpc_timeout; 0 disables)
  --run-deadline SECS   watchdog budget applied to each run phase; 0 disables
  --chaos-json FILE     JSON list of control-plane fault entries to inject
                        (see repro.faults.control) — CI gauntlet and
                        resilience testing
  --abort-after N       simulate a campaign crash after N completed runs
                        (testing --resume)
  --protocol {mdns,slp,hybrid,registry}
                        SD protocol agents (default mdns)
  --topology {mesh,grid,line,full}
                        emulated mesh shape (default mesh)
  --realtime FACTOR     pace runs against the wall clock at this speed factor
  --quiet
""",
    "fabric serve": """\
usage: repro fabric serve [-h] [--bind HOST:PORT] [--dir CAMPAIGN_DIR]
                          [--db DB] [--resume] [--batch-size N]
                          [--lease-ttl SECS] [--max-retries N]
                          [--chaos-json FILE]
                          [--protocol {mdns,slp,hybrid,registry}]
                          [--topology {mesh,grid,line,full}]
                          [--realtime FACTOR] [--rpc-timeout SECS]
                          [--run-deadline SECS] [--timeout SECS]
                          [--linger SECS] [--standby] [--leader-id NAME]
                          [--election-ttl SECS] [--quiet]
                          description

positional arguments:
  description           experiment XML file

options:
  -h, --help            show this help message and exit
  --bind HOST:PORT      listen address (port 0 picks an ephemeral port,
                        printed at startup; default 127.0.0.1:0)
  --dir CAMPAIGN_DIR    campaign directory (default ./<name>.campaign)
  --db DB               merged level-3 SQLite database (default: <campaign
                        dir>/<name>.db)
  --resume              resume an aborted fleet campaign from its journal
                        (workers re-register automatically)
  --batch-size N        maximum runs per lease (default 4)
  --lease-ttl SECS      seconds a leased batch stays owned without a renewal
                        before it is re-leased (default 30)
  --max-retries N, --retries N
                        extra attempts per failed run (default 1)
  --chaos-json FILE     JSON list of control-plane fault entries
  --protocol {mdns,slp,hybrid,registry}
                        SD protocol agents (default mdns)
  --topology {mesh,grid,line,full}
                        emulated mesh shape (default mesh)
  --realtime FACTOR     pace runs against the wall clock at this speed factor
  --rpc-timeout SECS    per-call control-channel deadline
  --run-deadline SECS   watchdog budget applied to each run phase
  --timeout SECS        abort if the campaign is not complete within this
                        wall-clock budget
  --linger SECS         stay up this long after completion so polling workers
                        observe done and exit (default 2)
  --standby             run as a hot standby: tail the campaign journal and
                        election ledger, take over leadership when the
                        leader's lease lapses or is released
  --leader-id NAME      identity on the election ledger (default coord-<pid> /
                        standby-<pid>)
  --election-ttl SECS   seconds the leadership lease stays held without a
                        renewal — the failover detection horizon for standbys
                        (default 10)
  --quiet
""",
}

# The three spellings had drifted apart in eight help strings; one
# declaration shows one wording, the fullest of the recorded ones.
# subcommand -> {flag: the subcommand whose recorded wording it now shows}
REWORDED = {
    "run": {},
    "campaign": {"--run-deadline SECS": "run"},
    "fabric serve": {
        "--rpc-timeout SECS": "campaign",
        "--run-deadline SECS": "run",
        "--dir CAMPAIGN_DIR": "campaign",
        "--resume": "campaign",
        "--max-retries N, --retries N": "campaign",
        "--chaos-json FILE": "campaign",
    },
}

# dest -> default of the same three, recorded with the help text.
RECORDED_DEFAULTS = {
    "campaign": {
        "abort_after": None,
        "campaign_dir": None,
        "chaos_json": None,
        "db": None,
        "jobs": 2,
        "max_retries": 1,
        "merge_only": False,
        "pool": "auto",
        "protocol": "mdns",
        "quiet": False,
        "realtime": None,
        "resume": False,
        "rpc_timeout": None,
        "run_deadline": None,
        "topology": "mesh",
    },
    "fabric serve": {
        "batch_size": 4,
        "bind": "127.0.0.1:0",
        "campaign_dir": None,
        "chaos_json": None,
        "db": None,
        "election_ttl": 10.0,
        "leader_id": None,
        "lease_ttl": 30.0,
        "linger": 2.0,
        "max_retries": 1,
        "protocol": "mdns",
        "quiet": False,
        "realtime": None,
        "resume": False,
        "rpc_timeout": None,
        "run_deadline": None,
        "standby": False,
        "timeout": None,
        "topology": "mesh",
    },
    "run": {
        "campaign_dir": None,
        "chaos_json": None,
        "db": None,
        "max_retries": 1,
        "protocol": "mdns",
        "quiet": False,
        "realtime": None,
        "resume": False,
        "rpc_timeout": None,
        "run_deadline": None,
        "topology": "mesh",
    },
}


def _help_entries(text):
    """``format_help()`` text as (usage tokens, {invocation: help}):
    argument order and line wrapping do not count."""
    usage, _, body = text.partition("\n\n")
    entries, key = {}, None
    for line in body.splitlines():
        if line.startswith("  ") and not line.startswith("   "):
            key, _, first = line.strip().partition("  ")
            entries[key] = first.strip()
        elif line.startswith("   "):
            entries[key] = f"{entries[key]} {line.strip()}".strip()
    return sorted(re.findall(r"\[[^\]]*\]|\S+", usage)), entries


def _subparser(command, parser=None):
    parser = parser or build_parser()
    for word in command.split():
        parser = parser._subparsers._group_actions[0].choices[word]
    return parser


@pytest.mark.parametrize("command", sorted(RECORDED_HELP))
def test_flag_sharing_subcommands_read_as_recorded(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want_usage, want = _help_entries(RECORDED_HELP[command])
    for flag, source in REWORDED[command].items():
        wording = _help_entries(RECORDED_HELP[source])[1][flag]
        assert want[flag] != wording
        want[flag] = wording
    usage, entries = _help_entries(_subparser(command).format_help())
    assert usage == want_usage
    assert entries == want

    parsed = vars(build_parser().parse_args([*command.split(), "x.xml"]))
    for selector in ("command", "fabric_command", "description"):
        parsed.pop(selector, None)
    assert parsed == RECORDED_DEFAULTS[command]


def test_shared_flags_are_one_declaration():
    # argparse hands a parent parser's Action objects to every child.
    root = build_parser()
    run, campaign, serve = (
        _subparser(command, root)._option_string_actions
        for command in ("run", "campaign", "fabric serve")
    )
    for flag in ("--protocol", "--topology", "--realtime", "--rpc-timeout", "--run-deadline"):
        assert run[flag] is campaign[flag] is serve[flag]
    assert run["--quiet"] is campaign["--quiet"] is serve["--quiet"]
    for flag in ("--dir", "--db", "--resume", "--max-retries", "--retries", "--chaos-json"):
        assert run[flag] is campaign[flag] is serve[flag]

"""Failure drills at the command line: an injected hang and abort that a
resume repairs, and corrupt level-2 stores that conditioning refuses."""

import json
import shutil

import pytest

from tests.cli import ROOT, has_line, repro, run, write_description

pytestmark = pytest.mark.ci


def test_an_injected_abort_fails_the_campaign_and_resume_completes_it(tmp_path):
    write_description(tmp_path / "chaos.xml", name="chaos-ci", seed=7, replications=4, env_count=1)
    chaos = [{"node": "t9-100", "action": "hang", "run_id": 1, "max_attempt": 1}]
    (tmp_path / "chaos.json").write_text(json.dumps(chaos))
    campaign = ("campaign", "chaos.xml", "--jobs", "2", "--pool", "thread", "--dir",
                "chaos.campaign", "--db", "chaos.db", "--max-retries", "1",
                "--chaos-json", "chaos.json", "--quiet")
    # Node t9-100 hangs in run 1, and the campaign is cut short after two
    # staged runs.
    aborted = repro(*campaign, "--abort-after", "2", cwd=tmp_path, code=2)
    assert "aborting after 2 runs" in aborted.stderr
    # The resume completes the rest; the re-queued run's retry succeeds,
    # because the hang is limited to attempt 1.
    repro(*campaign, "--resume", cwd=tmp_path)
    report = repro("inspect", "chaos.db", cwd=tmp_path).stdout
    assert has_line(r"^runs: 4 ", report) and has_line(r"^retried runs: 1 ", report)


#: One copy per corruption shape, each aimed at one node's last frame in a
#: packed run stream: a silent bit flip, a torn write (whatever followed
#: the frame is gone) and broken JSON under a CRC that holds.
SHAPES = {
    "crc_mismatch": "--stream events.jsonl --node t9-100 --flip-byte",
    "truncated": "--stream packets.jsonl --node t9-101 --truncate-bytes 20",
    "bad_json": "--stream traces.jsonl --node master --bad-json",
}


@pytest.fixture(scope="module")
def strict_l2(tmp_path_factory):
    """Run 0's level-2 staging store of a one-worker campaign."""
    work = tmp_path_factory.mktemp("strict")
    write_description(work / "strict.xml", name="strict-ci", seed=3, replications=2, env_count=2)
    repro("run", "strict.xml", "--dir", "strict.campaign", "--quiet", cwd=work)
    return work / "strict.campaign" / "staging" / "s0w00" / "run_000000"


@pytest.mark.parametrize("reason", sorted(SHAPES))
def test_conditioning_refuses_a_corrupt_store_and_names_why(reason, strict_l2, tmp_path):
    shutil.copytree(strict_l2, tmp_path / "copy.l2")
    run(ROOT / "tools" / "corrupt_l2.py", "copy.l2", "--run", "0", "--index", "-1",
        *SHAPES[reason].split(), cwd=tmp_path)
    refused = repro("condition", "copy.l2", "copy.db", cwd=tmp_path, code=2)
    assert f": {reason})" in refused.stderr
    assert not (tmp_path / "copy.db").exists()


def test_the_pristine_store_conditions_clean(strict_l2, tmp_path):
    shutil.copytree(strict_l2, tmp_path / "strict.l2")
    repro("condition", "strict.l2", "clean.db", cwd=tmp_path)
    repro("inspect", "clean.db", cwd=tmp_path)

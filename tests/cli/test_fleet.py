"""A fleet at the command line: one coordinator and one worker process."""

import subprocess
import sys

import pytest

from tests.cli import ENV, free_port, has_line, repro, write_description

pytestmark = pytest.mark.ci


def test_long_runs_on_a_one_worker_fleet_at_the_cli_defaults(tmp_path):
    """Three runs paced to >= 5 s of wall time each: a worker only renews
    its lease (every TTL/3 = 10 s), and a long run between two renewals
    must neither stall nor quarantine it."""
    write_description(tmp_path / "long.xml", name="long-ci", seed=11, replications=3, env_count=1)
    address = f"127.0.0.1:{free_port()}"
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric", "worker", address, "--id", "w0",
         "--workdir", "long.w0", "--quiet"],
        cwd=tmp_path, env=ENV,
    )
    try:
        serve = repro("fabric", "serve", "long.xml", "--bind", address, "--dir", "long.campaign",
                      "--db", "long.db", "--lease-ttl", "30", "--batch-size", "4",
                      "--realtime", "0.15", "--linger", "2", "--timeout", "180", cwd=tmp_path)
        assert worker.wait(timeout=60) == 0
    finally:
        worker.kill()
    assert "QUARANTINED" not in serve.stdout
    assert has_line(r"^runs: 3 ", repro("inspect", "long.db", cwd=tmp_path).stdout)

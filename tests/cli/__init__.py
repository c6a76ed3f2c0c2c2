"""CI's command-line checks: each runs ``repro`` in a subprocess, as a user would.

Every test under ``tests/cli/`` is marked ``ci``.  CI runs them with
``PYTHONPATH=src python -m pytest -m ci``; tier-1 (``pytest -x -q``)
leaves them out (``addopts`` in ``pyproject.toml``).
"""

import os
import re
import socket
import subprocess
import sys
from pathlib import Path

from repro.core.xmlio import description_to_xml
from repro.sd.processlib import build_two_party_description

ROOT = Path(__file__).resolve().parents[2]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "tools"))
from check_prom import check_prometheus_text  # noqa: E402


def run(*args, cwd, code=0):
    """Run ``python *args*`` in *cwd*; assert its exit code."""
    proc = subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd, env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == code, f"{args}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    return proc


def repro(*args, cwd, code=0):
    """Run ``python -m repro *args*`` in *cwd*; assert its exit code."""
    return run("-m", "repro", *args, cwd=cwd, code=code)


def digest(db, cwd):
    """``repro inspect <db> --digest``, checked to be a sha256 before any comparison."""
    value = repro("inspect", db, "--digest", cwd=cwd).stdout.strip()
    assert re.fullmatch(r"[0-9a-f]{64}", value), value
    return value


def prometheus(campaign_dir, cwd):
    """``repro metrics <dir> --format prometheus``, checked to be valid exposition."""
    text = repro("metrics", campaign_dir, "--format", "prometheus", cwd=cwd).stdout
    problems = check_prometheus_text(text)
    assert problems == [], problems
    return text


def has_line(pattern, text):
    return re.search(pattern, text, re.MULTILINE) is not None


def write_description(path, **kwargs):
    path.write_text(description_to_xml(build_two_party_description(**kwargs)), encoding="utf-8")


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]

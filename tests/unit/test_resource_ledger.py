"""The resource ledger: exact costs of one fixed campaign, pinned.

Wall time on a shared box cannot resolve a few per cent; a count can.
One 4-run campaign runs at two settings, and what it costs is compared
with ``tests/resource_ledger.json``.  A change that moves a number edits
the JSON in the same commit and says why.  Counted so far: ``os.fsync``
calls by the function that made them (SQLite's own syncs are not).
"""

import collections
import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import run_campaign
from repro.sd.processlib import build_two_party_description

LEDGER = json.loads((Path(__file__).resolve().parents[1] / "resource_ledger.json").read_text())
SETTINGS = {"--jobs 1": {"jobs": 1}, "--jobs 2 --pool thread": {"jobs": 2, "pool": "thread"}}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_fsyncs_by_call_site(setting, tmp_path, monkeypatch):
    counts, lock, real_fsync = collections.Counter(), threading.Lock(), os.fsync

    def fsync(fd):
        with lock:
            counts[sys._getframe(1).f_code.co_qualname] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    desc = build_two_party_description(seed=2014, env_count=1, replications=4)
    result = run_campaign(desc, tmp_path / "c", db_path=tmp_path / "c.db", **SETTINGS[setting])
    assert len(result.plan) == 4
    assert dict(counts) == LEDGER["fsync_by_call_site"][setting]

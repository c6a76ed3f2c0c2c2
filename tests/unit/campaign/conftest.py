"""Fixtures for the campaign session's report: a settable clock and a
fresh metrics registry."""

import types

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    """The session's ``time.monotonic``, settable.  Only the session module's
    reference is swapped: nothing else in the process sees a fake time."""
    fake = FakeClock()
    monkeypatch.setattr("repro.campaign.session.time", types.SimpleNamespace(monotonic=fake))
    return fake


@pytest.fixture
def registry():
    """A fresh process registry for the test's duration."""
    fresh = MetricsRegistry()
    set_registry(fresh)
    yield fresh
    set_registry(None)

"""Integration: special parameters steering the EE implementation (Sec. IV-E)."""

import pytest

from repro import run_experiment
from repro.sd.processlib import build_two_party_description
from repro.storage.level3 import ExperimentDatabase

from tests.conftest import execute_run


def test_collect_packets_false_drops_captures(tmp_path):
    desc = build_two_party_description(
        replications=1, seed=44, env_count=0,
        special_params={"collect_packets": False},
    )
    result = run_experiment(desc, tmp_path / "nopkts")
    with ExperimentDatabase(result.db_path) as db:
        assert db.row_counts()["Packets"] == 0
        assert db.row_counts()["Events"] > 0  # events unaffected


def test_special_params_travel_via_xml(tmp_path):
    from repro.core.xmlio import description_from_xml, description_to_xml

    desc = build_two_party_description(
        replications=1, seed=44, env_count=0,
        special_params={"max_run_duration": 55, "rpc_latency": 0.002},
    )
    again = description_from_xml(description_to_xml(desc))
    assert again.special_params["max_run_duration"] == 55
    assert again.special_params["rpc_latency"] == 0.002


def test_rpc_latency_param_shapes_sync_error(tmp_path):
    """A slower control channel must widen the measured sync error bound."""
    def error_bound(latency):
        desc = build_two_party_description(
            replications=1, seed=44, env_count=0,
            special_params={"rpc_latency": latency, "rpc_jitter": 0.0},
        )
        sync = execute_run(desc, tmp_path / f"lat{latency}").store.read_timesync(0)
        return max(m["error_bound"] for m in sync.values())

    fast = error_bound(0.0005)
    slow = error_bound(0.01)
    assert slow > fast
    assert slow >= 0.01  # bound >= one-way latency


def test_sync_probes_param_controls_probe_count(tmp_path):
    desc = build_two_party_description(
        replications=1, seed=44, env_count=0,
        special_params={"sync_probes": 9},
    )
    sync = execute_run(desc, tmp_path / "probes").store.read_timesync(0)
    assert all(m["probes"] == 9 for m in sync.values())


def test_missing_capability_blocks_execution(tmp_path):
    from repro import ExperiMaster, Level2Store
    from repro.core.errors import PlatformError
    from repro.platforms.base import PlatformCapabilities
    from repro.platforms.simulated import SimulatedPlatform

    desc = build_two_party_description(replications=1, seed=44, env_count=0)

    class CrippledPlatform(SimulatedPlatform):
        def capabilities(self):
            return PlatformCapabilities(
                management_channel=True,
                connection_control=False,  # cannot manipulate packets
                packet_capture=True,
                packet_tagging=True,
                time_sync=True,
            )

    platform = CrippledPlatform(desc)
    master = ExperiMaster(platform, desc, Level2Store(tmp_path / "cap"), 0)
    with pytest.raises(PlatformError, match="connection_control"):
        master.execute()


def test_retired_heartbeat_keys_are_unknown_and_inert(tmp_path):
    """Nothing probes node liveness: a description that still sets the old
    ``heartbeat_*`` keys is warned about like any unknown key, and runs
    byte-identically to one that does not."""
    from repro.core.validation import validate_description
    from repro.storage.level3 import database_digest

    digests = []
    for label, extra in (("plain", {}), ("heartbeat", {"heartbeat_interval": 1.0})):
        desc = build_two_party_description(replications=2, seed=5, special_params=extra)
        result = run_experiment(desc, tmp_path / label)
        # Only the stored description (ExpXML, its EEFiles copy) differs.
        digests.append(database_digest(result.db_path, ignore_columns=("ExpXML", "File")))
    assert digests[0] == digests[1]
    report = validate_description(desc)
    assert report.ok
    assert (
        "unknown special parameter 'heartbeat_interval' (passed through untyped)"
        in report.warnings
    )

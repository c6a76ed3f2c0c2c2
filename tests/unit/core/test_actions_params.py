"""Unit tests for the action registry and special parameters."""

import pytest

from repro.core.actions import ActionKind, ActionSpec, default_registry
from repro.core.errors import DescriptionError
from repro.core.params import SPECIAL_PARAM_DEFS, SpecialParams


# ----------------------------------------------------------------------
# Action registry
# ----------------------------------------------------------------------
def test_default_registry_has_sd_vocabulary():
    reg = default_registry()
    for name in (
        "sd_init", "sd_exit", "sd_start_search", "sd_stop_search",
        "sd_start_publish", "sd_stop_publish", "sd_update_publication",
    ):
        assert name in reg
        assert reg.lookup(name).kind is ActionKind.NODE


def test_default_registry_has_fault_actions():
    reg = default_registry()
    for kind in ("iface_fault", "msg_loss", "msg_delay", "path_loss", "path_delay"):
        assert f"{kind}_start" in reg
        assert f"{kind}_stop" in reg


def test_default_registry_env_actions():
    reg = default_registry()
    for name in (
        "env_traffic_start", "env_traffic_stop",
        "env_drop_all_start", "env_drop_all_stop",
    ):
        assert reg.lookup(name).kind is ActionKind.ENVIRONMENT


def test_lookup_unknown_raises():
    with pytest.raises(DescriptionError):
        default_registry().lookup("nope")


def test_register_duplicate_rejected_unless_replace():
    reg = default_registry()
    spec = ActionSpec("sd_init", ActionKind.NODE)
    with pytest.raises(DescriptionError):
        reg.register(spec)
    reg.register(spec, replace=True)
    assert reg.lookup("sd_init") is spec


def test_known_events_inventory():
    events = default_registry().known_events()
    assert "sd_service_add" in events
    assert "env_traffic_started" in events


def test_copy_isolates():
    reg = default_registry()
    clone = reg.copy()
    clone.register(ActionSpec("custom_action", ActionKind.NODE))
    assert "custom_action" in clone
    assert "custom_action" not in reg


# ----------------------------------------------------------------------
# Special parameters
# ----------------------------------------------------------------------
def test_defaults_apply():
    sp = SpecialParams({})
    assert sp.get("max_run_duration") == SPECIAL_PARAM_DEFS["max_run_duration"].default
    assert isinstance(sp.get("sync_probes"), int)


def test_values_coerced_to_declared_type():
    sp = SpecialParams({"max_run_duration": "45", "sync_probes": "3"})
    assert sp.get("max_run_duration") == 45.0
    assert sp.get("sync_probes") == 3


def test_bool_coercion():
    assert SpecialParams({"collect_packets": "false"}).get("collect_packets") is False
    assert SpecialParams({"collect_packets": "yes"}).get("collect_packets") is True
    assert SpecialParams({"collect_packets": True}).get("collect_packets") is True


def test_uncoercible_falls_back_to_default():
    sp = SpecialParams({"max_run_duration": "garbage"})
    assert sp.get("max_run_duration") == SPECIAL_PARAM_DEFS["max_run_duration"].default


def test_unknown_keys_pass_through():
    sp = SpecialParams({"custom": 17})
    assert sp.get("custom") == 17
    assert sp.unknown_keys() == ["custom"]


def test_as_dict_merges_known_and_unknown():
    """Known keys (set or defaulted) and unknown keys answer side by side."""
    sp = SpecialParams({"custom": 1, "sync_probes": 9})
    assert sp.get("custom") == 1 and sp.get("sync_probes") == 9
    assert sp.get("max_run_duration") == SPECIAL_PARAM_DEFS["max_run_duration"].default

"""Integration: custom factor level variation plans through a campaign."""

import pytest

from repro.campaign import run_campaign
from repro.core.designs import (
    completely_randomized_design,
    randomized_complete_block_design,
)
from repro.core.errors import CampaignError, RecoveryError
from repro.sd.processlib import build_two_party_description

from tests.conftest import staging_store


def _desc(seed=81):
    return build_two_party_description(
        name="custom-plan", seed=seed, replications=1, env_count=2,
        traffic=True, pairs_levels=(1, 2), bw_levels=(10, 50),
        special_params={"run_spacing": 0.0},
    )


def _execute(desc, root, custom, **kw):
    return run_campaign(desc, root, jobs=1, pool="thread", custom_treatments=custom, **kw)


def test_crd_plan_executes_all_runs(tmp_path):
    desc = _desc()
    custom = completely_randomized_design(desc.factors, seed=81, replications=2)
    result = _execute(desc, tmp_path / "crd", custom)
    assert len(result.executed_runs) == len(custom) == 8
    # The stored plan reflects the custom order, not OFAT.
    stored = staging_store(result.campaign_dir, 0).read_plan()
    treatments = [(t["treatment"]["fact_pairs"], t["treatment"]["fact_bw"])
                  for t in stored]
    ofat = sorted(treatments)
    assert treatments != ofat or len(set(treatments)) < len(treatments)


def test_rcbd_plan_executes(tmp_path):
    desc = _desc()
    custom = randomized_complete_block_design(desc.factors, "fact_bw", seed=2)
    result = _execute(desc, tmp_path / "rcbd", custom)
    stored = staging_store(result.campaign_dir, 0).read_plan()
    bws = [t["treatment"]["fact_bw"] for t in stored]
    assert bws == sorted(bws)  # blocks contiguous, declared order


def test_custom_plan_resume_roundtrip(tmp_path):
    desc = _desc()
    custom = completely_randomized_design(desc.factors, seed=81, replications=2)
    with pytest.raises(CampaignError, match="abort_after_runs"):
        _execute(desc, tmp_path / "r", custom, abort_after_runs=2)
    result = _execute(desc, tmp_path / "r", custom, resume=True)
    assert sorted(result.skipped_runs) == [0, 1]
    assert len(result.executed_runs) == 6


def test_resume_with_different_custom_plan_refused(tmp_path):
    desc = _desc()
    custom_a = completely_randomized_design(desc.factors, seed=81, replications=2)
    with pytest.raises(CampaignError, match="abort_after_runs"):
        _execute(desc, tmp_path / "r", custom_a, abort_after_runs=1)
    custom_b = completely_randomized_design(desc.factors, seed=999, replications=2)
    assert custom_a != custom_b
    with pytest.raises(RecoveryError, match="plan changed"):
        _execute(desc, tmp_path / "r", custom_b, resume=True)

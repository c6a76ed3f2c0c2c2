"""ExCovery reproduction: a framework for distributed system experiments.

A production-quality Python reimplementation of

    Dittrich, Wanja, Malek — *"ExCovery – A Framework for Distributed
    System Experiments and a Case Study of Service Discovery"*,
    IPDPS Workshops (PDSEC) 2014,

with the paper's physical platform (the DES wireless testbed) replaced by
a deterministic discrete-event network emulator and its SDP substrate
(Avahi/Zeroconf) replaced by from-scratch protocol implementations.

Quickstart
----------
>>> from repro import run_experiment
>>> from repro.sd.processlib import build_two_party_description
>>> desc = build_two_party_description(replications=2, seed=7)
>>> result = run_experiment(desc)           # doctest: +SKIP
>>> result.summary()["executed"]            # doctest: +SKIP
2
>>> result.db_path                          # doctest: +SKIP
PosixPath('/tmp/excovery-.../sd-two-party.db')

``run_experiment`` is a one-worker campaign: the level-3 database holds
the same bytes as ``run_campaign`` at any ``jobs`` for the same
description and seed.

See ``examples/quickstart.py`` for the full tour: description → execution
→ conditioning → level-3 SQLite → analysis.
"""

from repro.core.description import ExperimentDescription
from repro.core.master import ExperiMaster, ExperimentResult
from repro.core.xmlio import description_from_xml, description_to_xml
from repro.platforms.simulated import PlatformConfig, SimulatedPlatform
from repro.storage.level2 import Level2Store
from repro.storage.level3 import store_level3

__version__ = "1.0.0"

__all__ = [
    "ExperiMaster",
    "ExperimentDescription",
    "ExperimentResult",
    "Level2Store",
    "PlatformConfig",
    "SimulatedPlatform",
    "description_from_xml",
    "description_to_xml",
    "run_experiment",
    "store_level3",
    "__version__",
]


def run_experiment(description, campaign_dir=None, config=None):
    """One-call convenience: execute *description* as a one-worker campaign.

    Parameters
    ----------
    description:
        An :class:`ExperimentDescription` (build one programmatically, via
        :mod:`repro.sd.processlib`, or parse XML with
        :func:`description_from_xml`).
    campaign_dir:
        Campaign directory (journal, shards, per-run level-2 staging
        stores); a temporary directory when omitted.  The merged level-3
        database is ``<campaign_dir>/<name>.db``.
    config:
        Optional :class:`PlatformConfig`.

    Returns the :class:`~repro.campaign.CampaignResult`.  To resume an
    aborted campaign, call :func:`~repro.campaign.run_campaign` with
    ``resume=True``.
    """
    import tempfile
    from pathlib import Path

    from repro.campaign import run_campaign

    if campaign_dir is None:
        campaign_dir = tempfile.mkdtemp(prefix="excovery-")
    campaign_dir = Path(campaign_dir)
    return run_campaign(
        description,
        campaign_dir,
        db_path=campaign_dir / f"{description.name}.db",
        jobs=1,
        pool="thread",
        config=config,
    )

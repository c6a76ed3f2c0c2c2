"""Campaign execution: every series of runs, on one worker or many.

An :class:`~repro.core.master.ExperiMaster` executes one run of a
treatment plan; a campaign executes the plan — ``repro run`` and
:func:`repro.run_experiment` as a one-worker campaign, ``repro campaign``
on a worker pool, ``repro fabric serve`` on a leased fleet — and stores
one dataset per (description, seed) whichever of them ran it:

* :mod:`repro.campaign.scheduler` — partitions the plan into run tickets
  with retry policies and capacity constraints;
* :mod:`repro.campaign.session` — what happens when a campaign opens,
  a run settles and the campaign seals: the one policy the local pool
  and the fleet fabric (:mod:`repro.fabric`) both drive;
* :mod:`repro.campaign.engine` — executes tickets on a worker pool
  (threads or processes), each run inside its *own* fresh platform and
  kernel, so every run's data is a pure function of (description, run)
  and bit-identical regardless of worker count or completion order;
* :mod:`repro.campaign.journal` — the write-ahead JSONL journal (Sec.
  VII's recovery), so a crashed campaign resumes exactly the
  aborted/unstarted runs, read through its one fold
  (:mod:`repro.campaign.state`);
* :mod:`repro.campaign.merge` — per-worker level-3 SQLite shards merged
  deterministically (ordered by run id, never by completion time) into
  the single experiment database of Table I.

The session is also the campaign's one reporter: progress lines for the
CLI, the ``repro_campaign_*`` metrics and ``CampaignResult.telemetry``.
"""

from repro.campaign.engine import CampaignEngine, run_campaign
from repro.campaign.journal import CampaignJournal
from repro.campaign.merge import ShardWriter, database_digest, merge_shards
from repro.campaign.scheduler import CampaignScheduler, RunTicket
from repro.campaign.session import CampaignResult, CampaignSession, merge_campaign

__all__ = [
    "CampaignEngine",
    "CampaignJournal",
    "CampaignResult",
    "CampaignScheduler",
    "CampaignSession",
    "RunTicket",
    "ShardWriter",
    "database_digest",
    "merge_campaign",
    "merge_shards",
    "run_campaign",
]

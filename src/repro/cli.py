"""Command-line interface: run, inspect and analyze experiments.

The prototype section (Sec. VI) describes ExCovery as classes *"that can
be instantiated by programs to analyze, visualize, trace or export
experiment related data"*; this CLI is that program for the common
workflows:

``repro run <description.xml>``
    Execute a description on the emulated platform as a one-worker
    campaign: the same journal, resume and level-3 database as
    ``repro campaign``, so one (description, seed) gives one dataset.
``repro validate <description.xml>``
    Parse + semantic check; print errors and warnings.
``repro describe <description.xml>``
    Human-readable narration of a description and its treatment plan.
``repro inspect <experiment.db>``
    Summarize a stored experiment: schema, runs, discovery outcomes.
``repro timeline <experiment.db> --run N``
    Render the Fig. 11 ASCII timeline of one run.
``repro campaign <description.xml> --jobs N``
    Execute the plan's runs concurrently across a worker pool and merge
    the per-worker shards into one level-3 database; ``--resume``
    continues an aborted campaign from its journal.
``repro condition <level2-dir> <experiment.db>``
    Condition an existing level-2 store into a level-3 package; the
    first corrupt frame aborts it, naming the file, line and reason
    (DESIGN.md §11).
``repro repo <subcommand> ...``
    The L4 analytics warehouse (DESIGN.md §13): ``ingest`` level-3
    packages through the crash-safe write-behind queue, ``list`` the
    catalogue, ``query`` the materialized read models, ``diff`` two
    experiments, and ``regression-check`` a fresh package against a
    warehouse baseline (non-zero exit on drift).

Usage: ``python -m repro <command> ...`` (or the ``repro`` console script
if installed with entry points).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExCovery: distributed system experiments (reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Declared once, inherited by every subcommand that executes a
    # description (run, campaign, fabric serve), all of which own a
    # campaign directory.
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("description", type=Path, help="experiment XML file")
    execution.add_argument("--protocol", choices=("mdns", "slp", "hybrid", "registry"),
                           default="mdns", help="SD protocol agents (default mdns)")
    execution.add_argument("--topology", default="mesh",
                           choices=("mesh", "grid", "line", "full"),
                           help="emulated mesh shape (default mesh)")
    execution.add_argument("--realtime", type=float, default=None, metavar="FACTOR",
                           help="pace runs against the wall clock at this speed "
                                "factor")
    execution.add_argument("--rpc-timeout", type=float, default=None, metavar="SECS",
                           help="per-call control-channel deadline (overrides the "
                                "description's rpc_timeout; 0 disables)")
    execution.add_argument("--run-deadline", type=float, default=None, metavar="SECS",
                           help="watchdog budget applied to each run phase "
                                "(preparation, execution, clean-up); 0 disables")
    execution.add_argument("--quiet", action="store_true")

    campaign_dir = argparse.ArgumentParser(add_help=False)
    campaign_dir.add_argument("--dir", type=Path, default=None, dest="campaign_dir",
                              help="campaign directory: journal, staging stores and "
                                   "shards (default: ./<name>.campaign)")
    campaign_dir.add_argument("--db", type=Path, default=None,
                              help="merged level-3 SQLite database "
                                   "(default: <campaign dir>/<name>.db)")
    campaign_dir.add_argument("--resume", action="store_true",
                              help="resume an aborted campaign found in --dir")
    campaign_dir.add_argument("--max-retries", "--retries", type=int, default=1,
                              dest="max_retries", metavar="N",
                              help="extra attempts per failed run (default 1); a run "
                                   "failing on a dead node is re-queued this often "
                                   "before the campaign reports it failed")
    campaign_dir.add_argument("--chaos-json", type=Path, default=None, metavar="FILE",
                              help="JSON list of control-plane fault entries to "
                                   "inject (see repro.faults.control) — CI gauntlet "
                                   "and resilience testing")

    sub.add_parser(
        "run",
        help="execute an experiment description (a one-worker campaign)",
        parents=[execution, campaign_dir],
    )

    p_camp = sub.add_parser(
        "campaign",
        help="execute an experiment's runs in parallel",
        parents=[execution, campaign_dir],
    )
    p_camp.add_argument("--jobs", "-j", type=int, default=2,
                        help="worker count; capped by the description's "
                             "max_parallel special parameter (default 2)")
    p_camp.add_argument("--pool", choices=("thread", "process", "auto"),
                        default="auto",
                        help="worker pool kind (auto: processes for pure DES "
                             "on multi-core hosts, threads otherwise)")
    p_camp.add_argument("--merge-only", action="store_true",
                        help="only merge an already completed campaign's "
                             "shards into --db")
    p_camp.add_argument("--abort-after", type=int, default=None, metavar="N",
                        help="simulate a campaign crash after N completed runs "
                             "(testing --resume)")

    p_fab = sub.add_parser(
        "fabric",
        help="distributed campaign fabric: serve a campaign to a worker "
             "fleet, run a fleet worker, or query a coordinator",
    )
    fab_sub = p_fab.add_subparsers(dest="fabric_command", required=True)

    f_serve = fab_sub.add_parser(
        "serve",
        help="coordinate a campaign for a fleet of workers",
        parents=[execution, campaign_dir],
    )
    f_serve.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                         help="listen address (port 0 picks an ephemeral "
                              "port, printed at startup; default 127.0.0.1:0)")
    f_serve.add_argument("--batch-size", type=int, default=4, metavar="N",
                         help="maximum runs per lease (default 4)")
    f_serve.add_argument("--lease-ttl", type=float, default=30.0,
                         metavar="SECS", dest="lease_ttl",
                         help="seconds a leased batch stays owned without a "
                              "renewal before it is re-leased (default 30)")
    f_serve.add_argument("--timeout", type=float, default=None, metavar="SECS",
                         help="abort if the campaign is not complete within "
                              "this wall-clock budget")
    f_serve.add_argument("--linger", type=float, default=2.0, metavar="SECS",
                         help="stay up this long after completion so polling "
                              "workers observe done and exit (default 2)")
    f_serve.add_argument("--standby", action="store_true",
                         help="run as a hot standby: tail the campaign "
                              "journal and election ledger, take over "
                              "leadership when the leader's lease lapses or "
                              "is released")
    f_serve.add_argument("--leader-id", default=None, dest="leader_id",
                         metavar="NAME",
                         help="identity on the election ledger "
                              "(default coord-<pid> / standby-<pid>)")
    f_serve.add_argument("--election-ttl", type=float, default=10.0,
                         metavar="SECS", dest="election_ttl",
                         help="seconds the leadership lease stays held "
                              "without a renewal — the failover detection "
                              "horizon for standbys (default 10)")

    f_worker = fab_sub.add_parser(
        "worker", help="execute leased runs for a serving coordinator"
    )
    f_worker.add_argument("coordinator", metavar="HOST:PORT[,HOST:PORT...]",
                          help="coordinator seed list: the active "
                               "coordinator plus any standby endpoints "
                               "(walked in order after a failover)")
    f_worker.add_argument("--id", default=None, dest="worker_id",
                          metavar="NAME",
                          help="fleet-unique worker name "
                               "(default <hostname>-<pid>)")
    f_worker.add_argument("--workdir", type=Path, default=None,
                          help="local scratch root for staging stores and "
                               "the worker shard (default ./fabric-<id>)")
    f_worker.add_argument("--poll", type=float, default=0.5, metavar="SECS",
                          help="sleep between lease polls when the queue is "
                               "empty (default 0.5)")
    f_worker.add_argument("--reconnect-budget", type=float, default=60.0,
                          metavar="SECS", dest="reconnect_budget",
                          help="seconds to ride out an unreachable "
                               "coordinator, e.g. across its restart "
                               "(default 60)")
    f_worker.add_argument("--call-timeout", type=float, default=30.0,
                          metavar="SECS", dest="call_timeout",
                          help="per-attempt RPC deadline; lower it to "
                               "detect a partitioned (silent) coordinator "
                               "faster (default 30)")
    f_worker.add_argument("--quiet", action="store_true")

    f_status = fab_sub.add_parser(
        "status",
        help="print a coordinator's JSON status snapshot (leadership "
             "epoch, leader endpoint, standby roster); exits non-zero "
             "when no live leader holds the lease",
    )
    f_status.add_argument("coordinator", metavar="HOST:PORT", nargs="?",
                          default=None,
                          help="coordinator address (omit with --dir to "
                               "read the election ledger directly)")
    f_status.add_argument("--dir", type=Path, default=None,
                          dest="campaign_dir",
                          help="campaign directory: report leadership from "
                               "the election ledger without a live RPC "
                               "endpoint")

    f_handoff = fab_sub.add_parser(
        "handoff",
        help="gracefully transfer leadership: drain in-flight batches, "
             "release the lease so a standby claims the next epoch "
             "(re-leases exactly zero runs)",
    )
    f_handoff.add_argument("coordinator", metavar="HOST:PORT",
                           help="the current leader's address")
    f_handoff.add_argument("--timeout", type=float, default=30.0,
                           metavar="SECS",
                           help="drain budget before giving up (default 30)")

    p_val = sub.add_parser("validate", help="check a description")
    p_val.add_argument("description", type=Path)

    p_desc = sub.add_parser("describe", help="narrate a description")
    p_desc.add_argument("description", type=Path)
    p_desc.add_argument("--plan", action="store_true",
                        help="also print the head of the treatment plan")

    p_ins = sub.add_parser("inspect", help="summarize a level-3 database")
    p_ins.add_argument("database", type=Path, help="level-3 database")
    p_ins.add_argument("--digest", action="store_true",
                       help="print only the deterministic Table-I content "
                            "digest of the database")

    p_tl = sub.add_parser("timeline", help="render one run's timeline")
    p_tl.add_argument("database", type=Path)
    p_tl.add_argument("--run", type=int, default=0)
    p_tl.add_argument("--svg", type=Path, default=None,
                      help="write an SVG rendering to this path instead")

    p_rep = sub.add_parser("report", help="markdown report of a level-3 DB")
    p_rep.add_argument("database", type=Path)
    p_rep.add_argument("--out", type=Path, default=None,
                       help="write to file instead of stdout")
    p_rep.add_argument("--run", type=int, default=0,
                       help="run to render in the timeline section")

    p_cond = sub.add_parser("condition", help="level-2 dir -> level-3 DB")
    p_cond.add_argument("store", type=Path)
    p_cond.add_argument("database", type=Path)

    p_repo = sub.add_parser(
        "repo", help="the one-file L4 analytics warehouse"
    )
    repo_sub = p_repo.add_subparsers(dest="repo_command", required=True)

    r_ing = repo_sub.add_parser(
        "ingest", help="ingest level-3 packages (write-behind, crash-safe)"
    )
    r_ing.add_argument("root", type=Path, help="warehouse directory")
    r_ing.add_argument("databases", type=Path, nargs="+")
    r_ing.add_argument("--force", action="store_true",
                       help="ingest even if an identical package (same "
                            "Table-I digest) is already catalogued")

    r_list = repo_sub.add_parser("list", help="catalogue: experiments and "
                                              "partitions")
    r_list.add_argument("root", type=Path)

    r_q = repo_sub.add_parser("query", help="query the materialized read "
                                            "models")
    r_q.add_argument("root", type=Path)
    r_q.add_argument("kind", choices=("event-counts", "faults",
                                      "responsiveness", "trend"))
    r_q.add_argument("--experiment", default=None, metavar="REF",
                     help="restrict to one experiment (ExpID or name)")
    r_q.add_argument("--event-type", default=None, metavar="TYPE",
                     help="event type filter (required for trend)")

    r_diff = repo_sub.add_parser("diff", help="compare two ingested "
                                              "experiments")
    r_diff.add_argument("root", type=Path)
    r_diff.add_argument("a", metavar="EXP_A", help="ExpID or name")
    r_diff.add_argument("b", metavar="EXP_B", help="ExpID or name")

    r_reg = repo_sub.add_parser(
        "regression-check",
        help="check a fresh package against a warehouse baseline; "
             "exit 1 on drift",
    )
    r_reg.add_argument("root", type=Path)
    r_reg.add_argument("database", type=Path, help="fresh level-3 package")
    r_reg.add_argument("--baseline", default=None, metavar="REF",
                       help="baseline experiment (default: newest ingest "
                            "with the package's name)")
    r_reg.add_argument("--tol", type=float, default=0.0, metavar="F",
                       help="opt into aggregate-equivalence: digest drift "
                            "passes if responsiveness aggregates stay "
                            "within this relative tolerance (default: any "
                            "digest drift fails)")

    p_tr = sub.add_parser(
        "trace",
        help="inspect harness run-trace spans stored in a level-3 database",
    )
    p_tr.add_argument("database", type=Path)
    p_tr.add_argument("--run", type=int, default=None,
                      help="run to render; without it, per-phase statistics "
                           "across all runs plus the slowest run's critical "
                           "path")
    p_tr.add_argument("--critical-path", action="store_true",
                      dest="critical_path",
                      help="longest root-to-leaf span chain of the run "
                           "(default with --run: its span tree)")

    p_met = sub.add_parser(
        "metrics", help="export a harness metrics snapshot"
    )
    p_met.add_argument("source", type=Path,
                       help="metrics.json file, or a campaign directory "
                            "containing one")
    p_met.add_argument("--format", choices=("prometheus", "json"),
                       default="prometheus", dest="fmt",
                       help="output format (default prometheus text "
                            "exposition)")

    p_paper = sub.add_parser(
        "paper-xml",
        help="emit the paper's complete Figs. 4-10 experiment description",
    )
    p_paper.add_argument("--replications", type=int, default=10)
    p_paper.add_argument("--seed", type=int, default=1)

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _load_description(path: Path):
    from repro.core.xmlio import description_from_xml

    return description_from_xml(path.read_text(encoding="utf-8"))


def _apply_resilience_flags(desc, args) -> None:
    """Fold --rpc-timeout / --run-deadline into the special parameters.

    The overrides become part of the description (and therefore its
    fingerprint): a resumed execution must repeat the same flags, which
    keeps resumed runs byte-identical to uninterrupted ones.
    """
    overrides = {}
    if args.rpc_timeout is not None:
        overrides["rpc_timeout"] = args.rpc_timeout
    if args.run_deadline is not None:
        overrides["prep_deadline"] = args.run_deadline
        overrides["exec_deadline"] = args.run_deadline
        overrides["cleanup_deadline"] = args.run_deadline
    desc.special_params.update(overrides)


def _cmd_run(args) -> int:
    """``repro campaign`` with one thread worker."""
    return _cmd_campaign(argparse.Namespace(
        **vars(args), jobs=1, pool="thread", merge_only=False, abort_after=None
    ))


def _cmd_campaign(args) -> int:
    import json

    from repro.campaign import CampaignEngine, merge_campaign
    from repro.platforms.simulated import PlatformConfig

    desc = _load_description(args.description)
    _apply_resilience_flags(desc, args)
    campaign_dir = args.campaign_dir or Path(f"{desc.name}.campaign")
    db_path = args.db or campaign_dir / f"{desc.name}.db"

    if args.merge_only:
        print(f"level-3 database: {merge_campaign(campaign_dir, db_path)}")
        return 0

    control_faults = None
    if args.chaos_json is not None:
        control_faults = json.loads(args.chaos_json.read_text(encoding="utf-8"))

    engine = CampaignEngine(
        desc,
        campaign_dir,
        jobs=args.jobs,
        pool=args.pool,
        config=PlatformConfig(protocol=args.protocol, topology=args.topology),
        realtime_factor=args.realtime,
        max_attempts=1 + args.max_retries,
        resume=args.resume,
        progress=None if args.quiet else print,
        abort_after_runs=args.abort_after,
        control_faults=control_faults,
    )
    result = engine.execute(db_path=db_path)
    if not args.quiet:
        _print_campaign_result(result)
    return 0


def _print_campaign_result(result) -> None:
    """The closing lines of ``repro campaign`` and ``repro fabric serve``."""
    s = result.summary()
    print(
        f"campaign {s['experiment']!r}: {s['executed']} executed, "
        f"{s['skipped']} resumed, {s['timed_out']} timed out "
        f"({s['jobs']} {s['pool']} workers, {s['duration']:.1f}s)"
    )
    telemetry = result.telemetry or {}
    for phase, stats in (telemetry.get("phases") or {}).items():
        print(f"  {phase:<12} p50={stats['p50'] * 1000.0:.1f}ms  "
              f"p95={stats['p95'] * 1000.0:.1f}ms  (n={stats['count']})")
    if s["pool"] == "fleet":
        fleet = sorted(telemetry.get("fleet", {}).items())
        print("  fleet: " + ", ".join(f"{k}={v}" for k, v in fleet))
    print(f"campaign directory: {result.campaign_dir}")
    print(f"level-3 database: {result.db_path}")


def _cmd_fabric(args) -> int:
    handlers = {
        "serve": _fabric_serve,
        "worker": _fabric_worker,
        "status": _fabric_status,
        "handoff": _fabric_handoff,
    }
    return handlers[args.fabric_command](args)


def _fabric_serve(args) -> int:
    import json
    import os
    import time

    from repro.fabric import FabricCoordinator, LeadershipLost, StandbyCoordinator
    from repro.fabric.wire import parse_address
    from repro.platforms.simulated import PlatformConfig

    desc = _load_description(args.description)
    _apply_resilience_flags(desc, args)
    campaign_dir = args.campaign_dir or Path(f"{desc.name}.campaign")
    db_path = args.db or campaign_dir / f"{desc.name}.db"
    control_faults = None
    if args.chaos_json is not None:
        control_faults = json.loads(args.chaos_json.read_text(encoding="utf-8"))
    host, port = parse_address(args.bind)
    shared = dict(
        host=host,
        port=port,
        batch_size=args.batch_size,
        lease_ttl=args.lease_ttl,
        max_attempts=1 + args.max_retries,
        config=PlatformConfig(protocol=args.protocol, topology=args.topology),
        realtime_factor=args.realtime,
        control_faults=control_faults,
        election_ttl=args.election_ttl,
        progress=None if args.quiet else print,
    )
    if args.standby:
        watcher = StandbyCoordinator(
            desc,
            campaign_dir,
            standby_id=args.leader_id or f"standby-{os.getpid()}",
            db_path=db_path,
            on_event=None if args.quiet else print,
            **shared,
        )
        print(f"fabric standby {watcher.standby_id} watching {campaign_dir} "
              f"(election TTL {args.election_ttl:g}s)")
        try:
            result = watcher.run(timeout=args.timeout)
        except LeadershipLost as lost:
            print(f"standby lost leadership: {lost}")
            return 0 if lost.reason in ("handoff", "complete") else 3
        if result is None:
            return 0
        time.sleep(max(0.0, args.linger))
    else:
        coordinator = FabricCoordinator(
            desc, campaign_dir, resume=args.resume, leader_id=args.leader_id, **shared
        )
        try:
            with coordinator:
                print(f"fabric coordinator serving at {coordinator.address} "
                      f"({len(coordinator.session.plan)} runs, batch {args.batch_size}, "
                      f"lease TTL {args.lease_ttl:g}s, epoch {coordinator.epoch})")
                result = coordinator.run_until_complete(
                    db_path=db_path, timeout=args.timeout,
                )
                # Let polling workers observe done=True and exit cleanly
                # before the listener disappears.
                time.sleep(max(0.0, args.linger))
        except LeadershipLost as lost:
            # A handoff is a clean exit (the successor finishes the
            # campaign); a deposition means this process must not keep
            # writing and the operator should look at the successor.
            print(f"coordinator stopped leading: {lost}")
            return 0 if lost.reason == "handoff" else 3
    if not args.quiet:
        _print_campaign_result(result)
    return 0


def _fabric_worker(args) -> int:
    import os
    import socket

    from repro.fabric import FabricWorker

    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    workdir = args.workdir or Path(f"fabric-{worker_id}")
    worker = FabricWorker(
        args.coordinator,
        worker_id,
        workdir,
        poll_interval=args.poll,
        call_timeout=args.call_timeout,
        reconnect_budget=args.reconnect_budget,
        on_event=None if args.quiet else print,
    )
    counters = worker.run_forever()
    print(f"worker {worker_id}: {counters['completed']} completed, "
          f"{counters['failed']} failed, {counters['abandoned']} abandoned")
    return 0


def _fabric_status(args) -> int:
    """Leadership-aware status: exit 0 only when a live leader leads.

    With a coordinator address the snapshot comes over RPC (and carries
    the full fleet state); with ``--dir`` the election ledger is read
    directly — the mode that still works when *no* coordinator answers,
    which is exactly when an operator most wants to know who leads.
    """
    import json

    from repro.campaign.journal import CampaignJournal
    from repro.core.errors import RpcError
    from repro.fabric import ElectionLedger, FleetChannel

    if args.coordinator is None and args.campaign_dir is None:
        print("fabric status needs a coordinator address or --dir")
        return 2
    status = None
    if args.coordinator is not None:
        try:
            with FleetChannel(args.coordinator, call_timeout=10.0,
                              reconnect_budget=10.0) as channel:
                status = json.loads(channel.call("status"))
        except RpcError as exc:
            if args.campaign_dir is None:
                print(f"coordinator unreachable: {exc}")
                return 1
    if status is None:
        status = {"election": ElectionLedger(CampaignJournal(args.campaign_dir)).summary()}
    print(json.dumps(status, indent=2, sort_keys=True))
    election = status.get("election") or {}
    if not election.get("leader_live") or status.get("deposed"):
        return 1
    return 0


def _fabric_handoff(args) -> int:
    import json

    from repro.fabric import FleetChannel

    # The drain can legitimately take the whole timeout; give the RPC a
    # little headroom beyond it.
    with FleetChannel(args.coordinator, call_timeout=args.timeout + 10.0,
                      reconnect_budget=10.0) as channel:
        reply = json.loads(channel.call("handoff", args.timeout))
    if reply.get("released"):
        print(f"leadership released (epoch {reply.get('epoch')}); "
              "a standby will claim the next epoch")
        return 0
    print(f"handoff refused: {reply.get('reason')}"
          + (f" (pending {reply['pending']})" if reply.get("pending") else ""))
    return 1


def _cmd_validate(args) -> int:
    from repro.core.validation import validate_description

    desc = _load_description(args.description)
    report = validate_description(desc)
    for problem in report.errors:
        print(f"error: {problem}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.ok:
        print(f"OK: {desc.name!r} — {desc.factors.total_runs()} runs, "
              f"{len(desc.actors)} actors, {len(desc.platform)} platform nodes"
              + (f", {len(report.warnings)} warning(s)" if report.warnings else ""))
        return 0
    return 1


def _cmd_describe(args) -> int:
    from repro.core.plan import generate_plan
    from repro.viz.describe import describe_description, describe_plan

    desc = _load_description(args.description)
    print(describe_description(desc))
    if args.plan:
        print()
        print(describe_plan(generate_plan(desc.factors, desc.seed)))
    return 0


def _cmd_inspect(args) -> int:
    from repro.analysis.responsiveness import run_outcomes
    from repro.sd.metrics import summarize_runs
    from repro.storage.level3 import ExperimentDatabase

    if args.database.is_dir():
        print(f"error: {args.database} is a directory; inspect expects "
              "a level-3 database", file=sys.stderr)
        return 2

    if args.digest:
        from repro.campaign.merge import database_digest

        print(database_digest(args.database))
        return 0

    with ExperimentDatabase(args.database) as db:
        info = db.experiment_info()
        counts = db.row_counts()
        print(f"experiment: {info['Name']}  ({info['EEVersion']})")
        if info["Comment"]:
            print(f"comment: {info['Comment']}")
        print("rows: " + ", ".join(f"{t}={n}" for t, n in sorted(counts.items())))
        run_ids = db.run_ids()
        print(f"runs: {len(run_ids)}  nodes: {', '.join(db.node_ids())}")
        aborted = db.abort_reasons()
        if aborted:
            print(f"retried runs: {len(aborted)} "
                  "(completed after an aborted earlier attempt)")
            for run_id, reason in sorted(aborted.items()):
                print(f"  run {run_id}: {reason}")
        outcomes = run_outcomes(db)
        if outcomes:
            summary = summarize_runs(outcomes)
            print(f"discovery: {summary['complete']}/{summary['runs']} complete"
                  + (f", median t_R = {summary['t_r_median']:.3f} s"
                     if summary["t_r_median"] is not None else ""))
    return 0


def _cmd_timeline(args) -> int:
    from repro.analysis.timeline import build_run_timeline
    from repro.storage.level3 import ExperimentDatabase
    from repro.viz.timeline_art import render_timeline

    with ExperimentDatabase(args.database) as db:
        events = db.events(run_id=args.run)
        if not events:
            print(f"no events for run {args.run}", file=sys.stderr)
            return 1
        timeline = build_run_timeline(events, args.run)
    if args.svg is not None:
        from repro.viz.timeline_svg import render_timeline_svg

        args.svg.write_text(render_timeline_svg(timeline), encoding="utf-8")
        print(f"SVG timeline written to {args.svg}")
    else:
        print(render_timeline(timeline))
    return 0


def _cmd_report(args) -> int:
    from repro.storage.level3 import ExperimentDatabase
    from repro.viz.report import experiment_report

    with ExperimentDatabase(args.database) as db:
        text = experiment_report(db, timeline_run=args.run)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_condition(args) -> int:
    from repro.storage.level2 import Level2Store
    from repro.storage.level3 import store_level3

    db_path = store_level3(Level2Store(args.store), args.database)
    print(f"level-3 database: {db_path}")
    return 0


def _cmd_repo(args) -> int:
    handlers = {
        "ingest": _repo_ingest,
        "list": _repo_list,
        "query": _repo_query,
        "diff": _repo_diff,
        "regression-check": _repo_regression_check,
    }
    return handlers[args.repo_command](args)


def _repo_ingest(args) -> int:
    from repro.repo import IngestError, Warehouse, WriteBehindIngester

    failure = None
    with Warehouse(args.root) as warehouse:
        recovery = warehouse.last_recovery
        recovered = sum(len(v) for v in recovery.values())
        if recovered:
            print(f"recovered {recovered} in-flight ingest(s) from a previous "
                  f"session: {recovery}", file=sys.stderr)
        queue = WriteBehindIngester(warehouse)
        for db in args.databases:
            queue.submit(db, force=args.force)
        try:
            results = queue.close()
        except IngestError as exc:
            results, failure = exc.results, exc
        for result in filter(None, results):
            if result.duplicate:
                print(f"{result.source}: duplicate of experiment "
                      f"#{result.exp_id} (same Table-I digest), skipped")
            else:
                print(f"ingested {result.source} as experiment "
                      f"#{result.exp_id}")
        print(f"warehouse holds {len(warehouse.experiments())} experiment(s) "
              f"in {len(warehouse.partitions())} partition(s)")
    if failure is not None:
        raise failure
    return 0


def _repo_list(args) -> int:
    from repro.repo import Warehouse

    with Warehouse(args.root) as warehouse:
        partitions = {p["PartitionID"]: p for p in warehouse.partitions()}
        for exp in warehouse.experiments():
            part = partitions[exp["PartitionID"]]
            print(f"#{exp['ExpID']}  {exp['Name']}  "
                  f"partition={part['Name']}:{part['FactorFingerprint'][:12]}  "
                  f"digest={exp['ContentDigest'][:12]}")
        print(f"{len(warehouse.experiments())} experiment(s), "
              f"{len(partitions)} partition(s)")
    return 0


def _repo_query(args) -> int:
    from repro.repo import Warehouse

    with Warehouse(args.root) as warehouse:
        exp_id = (
            warehouse.resolve(args.experiment)
            if args.experiment is not None
            else None
        )
        if args.kind == "event-counts":
            for row in warehouse.event_counts(exp_id, args.event_type):
                print(f"#{row['exp_id']} {row['name']}  "
                      f"{row['event_type']} = {row['n']}")
        elif args.kind == "faults":
            for row in warehouse.fault_breakdown(exp_id):
                print(f"#{row['exp_id']} {row['name']}  "
                      f"kind={row['kind']} phase={row['phase']} n={row['n']}")
        elif args.kind == "responsiveness":
            for row in warehouse.responsiveness_surface(exp_id):
                median = (f"{row['t_r_median']:.4f}"
                          if row["t_r_median"] is not None else "-")
                print(f"#{row['exp_id']} {row['name']}  {row['treatment']}  "
                      f"runs={row['runs']} complete={row['complete']} "
                      f"t_R median={median}")
        elif args.kind == "trend":
            if args.event_type is None:
                print("error: trend needs --event-type", file=sys.stderr)
                return 2
            for row in warehouse.trend(args.event_type):
                print(f"seq={row['ingest_seq']} #{row['exp_id']} "
                      f"{row['name']}  n={row['n']}")
    return 0


def _repo_diff(args) -> int:
    from repro.repo import Warehouse

    with Warehouse(args.root) as warehouse:
        diff = warehouse.diff(args.a, args.b)
        print(f"a: #{diff['a']['exp_id']} {diff['a']['name']} "
              f"({diff['a']['digest'][:12]})")
        print(f"b: #{diff['b']['exp_id']} {diff['b']['name']} "
              f"({diff['b']['digest'][:12]})")
        if diff["identical"]:
            print("identical Table-I content")
            return 0
        for field, (va, vb) in diff["stats"].items():
            print(f"stats.{field}: {va} -> {vb}")
        for etype, (na, nb) in diff["event_counts"].items():
            print(f"events[{etype}]: {na} -> {nb}")
        for treatment, sides in diff["responsiveness"].items():
            print(f"responsiveness[{treatment}]: {sides['a']} -> {sides['b']}")
        if not (diff["stats"] or diff["event_counts"]
                or diff["responsiveness"]):
            print("digests differ but every compared aggregate matches")
    return 0


def _repo_regression_check(args) -> int:
    from repro.repo import Warehouse

    with Warehouse(args.root) as warehouse:
        verdict = warehouse.regression_check(
            args.database,
            baseline=args.baseline,
            tolerance=args.tol,
        )
    print(f"baseline: #{verdict['baseline']['exp_id']} "
          f"{verdict['baseline']['name']}")
    for check in verdict["checks"]:
        status = "ok" if check["ok"] else "DRIFT"
        detail = {k: v for k, v in check.items() if k not in ("check", "ok")}
        print(f"  [{status}] {check['check']}  {detail}")
    if verdict["ok"]:
        print("regression check passed")
        return 0
    print("regression check FAILED", file=sys.stderr)
    return 1


def _cmd_trace(args) -> int:
    from repro.obs.analyze import (
        format_critical_path,
        format_tree,
        phase_durations,
        phase_statistics,
    )
    from repro.storage.level3 import ExperimentDatabase

    with ExperimentDatabase(args.database) as db:
        if args.run is not None:
            records = db.run_traces(run_id=args.run)
            if not records:
                print(f"no trace spans for run {args.run} "
                      "(tracing disabled, or a pre-tracing database)",
                      file=sys.stderr)
                return 1
            if args.critical_path:
                print(f"run {args.run} critical path:")
                print("\n".join(format_critical_path(records)))
            else:
                print(f"run {args.run} span tree:")
                print("\n".join(format_tree(records)))
            return 0

        records = db.run_traces()
    records = [r for r in records if r.get("run_id") is not None]
    if not records:
        print("no trace spans stored "
              "(tracing disabled, or a pre-tracing database)", file=sys.stderr)
        return 1

    by_run: dict = {}
    for rec in records:
        by_run.setdefault(rec["run_id"], []).append(rec)
    durations: dict = {}
    for run_records in by_run.values():
        for phase, seconds in phase_durations(run_records).items():
            durations.setdefault(phase, []).append(seconds)
    print(f"runs with spans: {len(by_run)}")
    for phase, stats in phase_statistics(durations).items():
        print(f"  {phase:<12} n={stats['count']:<5} "
              f"p50={stats['p50'] * 1000.0:.1f}ms  "
              f"p95={stats['p95'] * 1000.0:.1f}ms  "
              f"max={stats['max'] * 1000.0:.1f}ms")
    slowest = max(
        by_run,
        key=lambda rid: sum(
            r["end"] - r["start"] for r in by_run[rid] if r["name"] == "run"
        ),
    )
    print(f"slowest run ({slowest}) critical path:")
    print("\n".join(format_critical_path(by_run[slowest])))
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.obs.metrics import render_prometheus

    source = args.source
    if source.is_dir():
        source = source / "metrics.json"
    if not source.exists():
        print(f"error: no metrics snapshot at {source} "
              "(produced by `repro run`, `repro campaign` and "
              "`repro fabric serve`)", file=sys.stderr)
        return 1
    snapshot = json.loads(source.read_text(encoding="utf-8"))
    if args.fmt == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_prometheus(snapshot))
    return 0


def _cmd_paper_xml(args) -> int:
    from repro.paper import full_paper_experiment_xml

    print(full_paper_experiment_xml(replications=args.replications, seed=args.seed))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "fabric": _cmd_fabric,
    "validate": _cmd_validate,
    "describe": _cmd_describe,
    "inspect": _cmd_inspect,
    "timeline": _cmd_timeline,
    "report": _cmd_report,
    "condition": _cmd_condition,
    "repo": _cmd_repo,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "paper-xml": _cmd_paper_xml,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Markdown reports of stored experiments.

Turns a level-3 database into a self-contained report: experiment
identity, informative parameters, treatment plan summary, per-treatment
discovery results, clock-sync quality, packet-level loss/delay, and a
sample run timeline — the "transparency and repeatability" artefact a
stored experiment is meant to be shared as.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

from repro.analysis.packetstats import packet_stats_for_run
from repro.analysis.routes import path_statistics
from repro.analysis.responsiveness import responsiveness_by_treatment, run_outcomes
from repro.analysis.timeline import build_run_timeline, phase_duration_summary
from repro.sd.metrics import summarize_runs
from repro.storage.level3 import ExperimentDatabase
from repro.viz.histogram import t_r_histogram
from repro.viz.timeline_art import render_timeline

__all__ = ["experiment_report"]


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "-"


def _informative_parameters(xml_text: str) -> Dict[str, str]:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError:
        return {}
    plist = root.find("parameterlist")
    if plist is None:
        return {}
    return {
        p.get("key", ""): p.get("value", "")
        for p in plist.findall("parameter")
    }


def experiment_report(
    db: ExperimentDatabase,
    deadlines: tuple = (0.2, 1.0, 5.0),
    timeline_run: Optional[int] = 0,
) -> str:
    """Render one experiment's report as markdown text."""
    info = db.experiment_info()
    run_ids = db.run_ids()
    lines: List[str] = []
    out = lines.append

    out(f"# Experiment report: {info['Name']}")
    out("")
    out(f"* framework: {info['EEVersion']}")
    if info["Comment"]:
        out(f"* comment: {info['Comment']}")
    out(f"* runs: {len(run_ids)}")
    out(f"* nodes: {', '.join(db.node_ids())}")
    params = _informative_parameters(info["ExpXML"])
    if params:
        out("")
        out("## Informative parameters")
        out("")
        for key, value in sorted(params.items()):
            out(f"* `{key}` = {value}")

    # ------------------------------------------------------------------
    out("")
    out("## Discovery results")
    out("")
    outcomes = run_outcomes(db)
    if outcomes:
        summary = summarize_runs(outcomes)
        out(f"* complete: {summary['complete']}/{summary['runs']} "
            f"({summary['success_rate']:.0%})")
        out(f"* t_R median / p95 / max: {_fmt(summary['t_r_median'])} / "
            f"{_fmt(summary['t_r_p95'])} / {_fmt(summary['t_r_max'])} s")
        out("")
        times = [o.t_r for o in outcomes if o.t_r is not None]
        if len(times) >= 3:
            out("")
            out("t_R distribution:")
            out("")
            out("```")
            out(t_r_histogram(outcomes, bins=8, width=32))
            out("```")
            out("")
        rows = responsiveness_by_treatment(db, deadlines=deadlines)
        if rows:
            header = "| treatment | runs | median t_R | " + " | ".join(
                f"R({d:g}s)" for d in deadlines
            ) + " |"
            out(header)
            out("|" + "---|" * (3 + len(deadlines)))
            for row in rows:
                treatment = ", ".join(
                    f"{k}={v}" for k, v in sorted(row["treatment"].items())
                ) or "(single)"
                cells = [
                    treatment,
                    str(row["runs"]),
                    _fmt(row["summary"]["t_r_median"]),
                ] + [f"{row[f'R({d:g}s)']['p']:.2f}" for d in deadlines]
                out("| " + " | ".join(cells) + " |")
    else:
        out("*no service discovery events recorded*")

    # ------------------------------------------------------------------
    all_events = db.events()
    phases = phase_duration_summary(all_events, run_ids)
    if phases:
        out("")
        out("## Run phase durations")
        out("")
        out("| phase | mean | min | max |")
        out("|---|---|---|---|")
        for phase in ("preparation", "execution", "cleanup", "total"):
            if phase in phases:
                p = phases[phase]
                out(f"| {phase} | {p['mean']:.3f} | {p['min']:.3f} "
                    f"| {p['max']:.3f} |")

    # ------------------------------------------------------------------
    out("")
    out("## Clock synchronization quality")
    out("")
    infos = db.run_infos()
    diffs = [r["TimeDiff"] for r in infos if r["NodeID"] != "master"]
    if diffs:
        out(f"* measured node offsets: min {min(diffs):+.4f} s, "
            f"max {max(diffs):+.4f} s over {len(diffs)} (run, node) pairs")
    else:
        out("*no sync measurements stored*")

    # ------------------------------------------------------------------
    if run_ids:
        sample = run_ids[0]
        packets = db.packets(run_id=sample)
        stats = packet_stats_for_run(packets)
        out("")
        out(f"## Packet-level statistics (run {sample})")
        out("")
        if stats:
            out("| origin | observer | sent | received | loss | mean delay |")
            out("|---|---|---|---|---|---|")
            for row in stats:
                out(
                    f"| {row['origin']} | {row['observer']} | {row['sent']} "
                    f"| {row['received']} | {row['loss_rate']:.2f} "
                    f"| {_fmt(row['delay']['mean'])} |"
                )
        else:
            out("*no tagged packets captured*")
        route_stats = path_statistics(packets)
        if route_stats["tracked_packets"]:
            out("")
            out(f"* tracked packets: {route_stats['tracked_packets']} "
                f"({route_stats['stranded']} never left their originator)")
            dist = route_stats["hop_count_distribution"]
            if dist:
                out("* observed hop counts: "
                    + ", ".join(f"{h} hop(s): {n}" for h, n in dist.items()))

    # ------------------------------------------------------------------
    if timeline_run is not None and timeline_run in run_ids:
        out("")
        out(f"## Timeline of run {timeline_run}")
        out("")
        out("```")
        timeline = build_run_timeline(db.events(run_id=timeline_run), timeline_run)
        out(render_timeline(timeline))
        out("```")

    out("")
    return "\n".join(lines)

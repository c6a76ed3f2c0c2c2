"""SVG rendering of run timelines — Fig. 11 as a vector graphic.

Same information as :mod:`repro.viz.timeline_art`, publication-ready:
one horizontal lane per node, circles for events (filled for the
"black circle" event types the paper highlights, hollow for supporting
actions), shaded phase bands, and the measured ``t_R`` bracket.

The renderer writes plain SVG by hand (no dependencies); output opens in
any browser.
"""

from __future__ import annotations

import html
from typing import List, Optional

from repro.analysis.timeline import RunTimeline

__all__ = ["render_timeline_svg", "FILLED_EVENTS"]

#: Events drawn as filled circles (the paper's "events"); everything else
#: is hollow (the paper's "actions").
FILLED_EVENTS = {
    "sd_service_add", "sd_service_del", "sd_service_upd",
    "scm_started", "scm_found", "scm_registration_add",
    "done", "run_timeout", "wait_timeout", "echo_reply", "echo_timeout",
}

_PHASE_FILL = {
    "preparation": "#eef2f7",
    "execution": "#e8f5e9",
    "cleanup": "#fff3e0",
}

_WIDTH = 900
_LANE_H = 34
_MARGIN_L = 110
_MARGIN_R = 30
_MARGIN_T = 48
_MARGIN_B = 46


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def render_timeline_svg(
    timeline: RunTimeline,
    include_nodes: Optional[List[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render *timeline* as a complete SVG document (a string)."""
    nodes = list(include_nodes) if include_nodes else timeline.nodes()
    span = max(timeline.end - timeline.start, 1e-9)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    height = _MARGIN_T + _LANE_H * max(1, len(nodes)) + _MARGIN_B

    def x_of(t: float) -> float:
        return _MARGIN_L + (t - timeline.start) / span * plot_w

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}" '
        f'font-family="monospace" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{height}" fill="white"/>')

    heading = title or f"run {timeline.run_id}"
    if timeline.t_r is not None:
        heading += f"   t_R = {timeline.t_r:.3f} s"
    parts.append(
        f'<text x="{_MARGIN_L}" y="20" font-size="14">{_esc(heading)}</text>'
    )

    # Phase bands.
    bands = []
    exec_begin = timeline.exec_begin if timeline.exec_begin is not None else timeline.end
    exec_end = timeline.exec_end if timeline.exec_end is not None else timeline.end
    bands.append(("preparation", timeline.start, exec_begin))
    bands.append(("execution", exec_begin, exec_end))
    bands.append(("cleanup", exec_end, timeline.end))
    lanes_top = _MARGIN_T - 10
    lanes_bottom = _MARGIN_T + _LANE_H * len(nodes)
    for phase, t0, t1 in bands:
        if t1 <= t0:
            continue
        parts.append(
            f'<rect x="{x_of(t0):.1f}" y="{lanes_top}" '
            f'width="{max(0.5, x_of(t1) - x_of(t0)):.1f}" '
            f'height="{lanes_bottom - lanes_top}" fill="{_PHASE_FILL[phase]}"/>'
        )
        parts.append(
            f'<text x="{x_of(t0) + 3:.1f}" y="{lanes_bottom + 14}" '
            f'fill="#666" font-size="10">{phase}</text>'
        )

    # Lanes and events.
    for i, node in enumerate(nodes):
        y = _MARGIN_T + _LANE_H * i + _LANE_H // 2
        parts.append(
            f'<text x="8" y="{y + 4}" fill="#333">{_esc(node)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{y}" stroke="#bbb" stroke-width="1"/>'
        )
        for entry in timeline.events_on(node):
            cx = x_of(entry.common_time)
            filled = entry.name in FILLED_EVENTS
            fill = "#1f2937" if filled else "white"
            label = _esc(
                f"{entry.name} @ {timeline.relative_time(entry):.3f}s"
                + (f" {entry.params}" if entry.params else "")
            )
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{y}" r="5" fill="{fill}" '
                f'stroke="#1f2937" stroke-width="1.5">'
                f"<title>{label}</title></circle>"
            )

    # Time axis.
    axis_y = lanes_bottom + 24
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{axis_y}" stroke="#333"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = timeline.start + span * frac
        x = x_of(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y - 3}" x2="{x:.1f}" '
            f'y2="{axis_y + 3}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 16}" text-anchor="middle" '
            f'fill="#333" font-size="10">{span * frac:.2f}s</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)

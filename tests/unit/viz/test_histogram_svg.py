"""Unit tests for histograms and the SVG timeline renderer."""

import xml.etree.ElementTree as ET


from repro.analysis.timeline import build_run_timeline
from repro.sd.metrics import RunDiscovery
from repro.viz.histogram import histogram, t_r_histogram
from repro.viz.timeline_svg import FILLED_EVENTS, render_timeline_svg


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_bins_and_counts():
    values = [0.1] * 5 + [0.9] * 3
    art = histogram(values, bins=4, width=20)
    lines = art.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith(" 5")
    assert lines[-1].endswith(" 3")
    assert "####################" in lines[0]  # peak bar at full width


def test_histogram_empty_and_degenerate():
    assert histogram([]) == "(no samples)"
    art = histogram([2.0, 2.0, 2.0], width=10)
    assert "##########" in art and art.endswith("3")


def test_histogram_clipping():
    art = histogram([0.5, 0.6, 99.0], bins=2, lo=0.0, hi=1.0)
    assert "outside" in art


def test_t_r_histogram_includes_misses():
    def outcome(t_r):
        return RunDiscovery(
            run_id=0, su_node="su", search_started=0.0,
            found_at={"sm": t_r} if t_r is not None else {}, required={"sm"},
        )

    art = t_r_histogram([outcome(0.1), outcome(0.2), outcome(None)])
    assert "missed" in art and art.rstrip().endswith("1")


# ----------------------------------------------------------------------
# SVG timeline
# ----------------------------------------------------------------------
def _events():
    mk = lambda name, t, node="su", params=(): {  # noqa: E731
        "name": name, "node": node, "common_time": t,
        "params": list(params), "run_id": 0,
    }
    return [
        mk("run_init", 0.0, "master"),
        mk("sd_start_search", 1.0),
        mk("sd_service_add", 1.5, params=("svc", "sm")),
        mk("done", 1.6),
        mk("run_exit", 2.0, "master"),
    ]


def test_svg_is_wellformed_xml():
    svg = render_timeline_svg(build_run_timeline(_events(), 0))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_svg_contains_lanes_events_and_phases():
    svg = render_timeline_svg(build_run_timeline(_events(), 0))
    assert ">master<" in svg and ">su<" in svg
    assert svg.count("<circle") == len(_events())
    for phase in ("preparation", "execution", "cleanup"):
        assert phase in svg
    assert "t_R = 0.500 s" in svg


def test_svg_fill_distinguishes_event_kinds():
    svg = render_timeline_svg(build_run_timeline(_events(), 0))
    assert "sd_service_add" in FILLED_EVENTS
    # At least one filled and one hollow circle.
    assert 'fill="#1f2937"' in svg
    assert 'fill="white" stroke="#1f2937"' in svg


def test_svg_node_filter_and_title():
    svg = render_timeline_svg(
        build_run_timeline(_events(), 0),
        include_nodes=["su"], title="custom title",
    )
    assert "custom title" in svg
    assert ">master<" not in svg


def test_svg_tooltips_carry_relative_times():
    svg = render_timeline_svg(build_run_timeline(_events(), 0))
    assert "sd_service_add @ 1.500s" in svg


def test_svg_cli_roundtrip(tmp_path):
    from repro import run_experiment
    from repro.cli import main
    from repro.sd.processlib import build_two_party_description

    desc = build_two_party_description(replications=1, seed=91, env_count=0)
    db = run_experiment(desc, tmp_path / "c").db_path
    out = tmp_path / "run0.svg"
    assert main(["timeline", str(db), "--run", "0", "--svg", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")

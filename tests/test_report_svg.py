import json
import xml.etree.ElementTree as ET
from math import comb

import pytest

from simplewedge import LineKey, analyze, render_svg, render_text
from simplewedge.report import report_from_json, report_to_json


def test_analyze_six(six):
    report = analyze(six)
    assert report.n == 6
    assert report.line_count == 7
    assert report.line_size_histogram == {2: 3, 3: 4}
    assert report.max_line_size == 3
    assert report.three_bounded
    assert report.wedges == ()
    assert {line.key for line in report.simple_lines} == {
        LineKey(0, 1, 0),
        LineKey(0, 1, -2),
        LineKey(1, 0, 0),
    }
    assert all(not entry.covered for entry in report.coverage.entries)


def test_analyze_nine(nine):
    report = analyze(nine)
    assert not report.three_bounded
    uncovered = [e.line.key for e in report.coverage.entries if not e.covered]
    assert uncovered == [LineKey(0, 1, 0)]


def test_analyze_triangle(triangle):
    report = analyze(triangle)
    assert report.n == 3
    assert report.line_count == 3
    assert len(report.wedges) == 3


def test_report_invariants(six, nine, five, triangle):
    for config in (six, nine, five, triangle):
        report = analyze(config)
        pair_total = sum(
            count * comb(size, 2) for size, count in report.line_size_histogram.items()
        )
        assert pair_total == comb(report.n, 2)
        assert report.three_bounded == (report.max_line_size <= 3)
        assert sum(report.line_size_histogram.values()) == report.line_count


def test_report_json_round_trip(six, nine, five, triangle):
    for config in (six, nine, five, triangle):
        report = analyze(config)
        assert report_from_json(report_to_json(report)) == report


def test_report_json_rejects_inconsistent_coverage(nine):
    data = json.loads(report_to_json(analyze(nine)))
    entry = next(e for e in data["coverage"] if e["certificate"] is not None)
    entry["covered"] = False
    with pytest.raises(ValueError, match="'covered' disagrees"):
        report_from_json(json.dumps(data))


def test_render_text_mentions_headline_facts(six):
    text = render_text(analyze(six))
    assert "points: 6" in text
    assert "3-bounded: yes" in text
    assert "simple lines: 3" in text
    assert "uncovered" in text


def _class_counts(svg_text):
    root = ET.fromstring(svg_text)  # also checks well-formedness
    counts = {}
    for element in root.iter():
        for token in element.get("class", "").split():
            counts[token] = counts.get(token, 0) + 1
    return counts


def test_svg_six(six):
    report = analyze(six)
    svg = render_svg(six, report)
    counts = _class_counts(svg)
    assert counts.get("simple", 0) == 3
    assert counts.get("apex", 0) == 0
    assert counts.get("pt", 0) == 6
    assert counts.get("ln", 0) == 7


def test_svg_triangle(triangle):
    counts = _class_counts(render_svg(triangle, analyze(triangle)))
    assert counts.get("simple", 0) == 3
    assert counts.get("apex", 0) == 3


def test_svg_five(five):
    counts = _class_counts(render_svg(five, analyze(five)))
    assert counts.get("apex", 0) >= 1


def test_svg_byte_stable(six, nine):
    for config in (six, nine):
        report = analyze(config)
        assert render_svg(config, report) == render_svg(config, report)


def test_svg_lines_pass_through_their_points(six):
    """Each rendered chord must be a segment of the spanned line it draws:
    check the endpoints satisfy the (y-flipped) line equations."""
    from fractions import Fraction

    from simplewedge import spanned_lines

    svg = render_svg(six, analyze(six))
    root = ET.fromstring(svg)
    segments = [
        (
            Fraction(el.get("x1")),
            Fraction(el.get("y1")),
            Fraction(el.get("x2")),
            Fraction(el.get("y2")),
        )
        for el in root.iter()
        if el.tag.endswith("line")
    ]
    keys = list(spanned_lines(six).lines)
    assert len(segments) == len(keys)
    for key, (x1, y1, x2, y2) in zip(keys, segments):
        # rendered coordinates carry y negated and are rounded to 1e-6
        for x, y in ((x1, y1), (x2, y2)):
            assert abs(key.a * x - key.b * y + key.c) < Fraction(1, 10_000)

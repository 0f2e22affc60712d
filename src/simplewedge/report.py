"""Configuration analysis: one report object bundling every headline quantity,
with deterministic text and JSON renderings that round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .geometry import LineKey
from .incidence import Configuration, SimpleLine, simple_lines, spanned_lines
from .wedges import (
    CoverageEntry,
    CoverageReport,
    WedgeCertificate,
    brute_force_wedges,
    coverage_from,
)


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    line_count: int
    line_size_histogram: Dict[int, int]
    max_line_size: int
    three_bounded: bool
    simple_lines: Tuple[SimpleLine, ...]
    wedges: Tuple[WedgeCertificate, ...]
    coverage: CoverageReport


def analyze(config: Configuration) -> AnalysisReport:
    """Full analysis of a configuration in one pass: the simple lines and the
    brute-force oracle's wedges are computed once each, and the coverage is
    read off those wedges. The oracle makes it valid for any valid input."""
    inc = spanned_lines(config)
    lines = simple_lines(config)
    wedges = brute_force_wedges(config)
    return AnalysisReport(
        n=len(config.points),
        line_count=len(inc.lines),
        line_size_histogram=inc.size_histogram(),
        max_line_size=inc.max_line_size,
        three_bounded=inc.max_line_size <= 3,
        simple_lines=lines,
        wedges=wedges,
        coverage=coverage_from(lines, wedges),
    )


def _key_to_json(key: LineKey) -> List[int]:
    return [key.a, key.b, key.c]


def _key_from_json(data: List[int]) -> LineKey:
    return LineKey(*data)


def _simple_line_to_json(line: SimpleLine) -> dict:
    return {"key": _key_to_json(line.key), "endpoints": list(line.endpoints)}


def _simple_line_from_json(data: dict) -> SimpleLine:
    return SimpleLine(_key_from_json(data["key"]), tuple(data["endpoints"]))


def _certificate_to_json(cert: WedgeCertificate) -> dict:
    return {
        "apex": cert.apex,
        "arm1": cert.arm1,
        "arm2": cert.arm2,
        "key1": _key_to_json(cert.key1),
        "key2": _key_to_json(cert.key2),
    }


def _certificate_from_json(data: dict) -> WedgeCertificate:
    return WedgeCertificate(
        data["apex"],
        data["arm1"],
        data["arm2"],
        _key_from_json(data["key1"]),
        _key_from_json(data["key2"]),
    )


def report_to_json_dict(report: AnalysisReport) -> dict:
    return {
        "n": report.n,
        "lines": {
            "count": report.line_count,
            "sizes": {str(size): count for size, count in report.line_size_histogram.items()},
        },
        "max_line_size": report.max_line_size,
        "three_bounded": report.three_bounded,
        "simple_lines": [_simple_line_to_json(s) for s in report.simple_lines],
        "wedges": [_certificate_to_json(c) for c in report.wedges],
        "coverage": [
            {
                "key": _key_to_json(entry.line.key),
                "endpoints": list(entry.line.endpoints),
                "covered": entry.covered,
                "certificate": None
                if entry.certificate is None
                else _certificate_to_json(entry.certificate),
            }
            for entry in report.coverage.entries
        ],
    }


def _coverage_entry_from_json(data: dict) -> CoverageEntry:
    cert = None if data["certificate"] is None else _certificate_from_json(data["certificate"])
    if data["covered"] != (cert is not None):
        raise ValueError(f"coverage entry {data['endpoints']}: 'covered' disagrees with 'certificate'")
    return CoverageEntry(_simple_line_from_json(data), cert)


def report_from_json_dict(data: dict) -> AnalysisReport:
    entries = tuple(_coverage_entry_from_json(e) for e in data["coverage"])
    return AnalysisReport(
        n=data["n"],
        line_count=data["lines"]["count"],
        line_size_histogram={int(size): count for size, count in data["lines"]["sizes"].items()},
        max_line_size=data["max_line_size"],
        three_bounded=data["three_bounded"],
        simple_lines=tuple(_simple_line_from_json(s) for s in data["simple_lines"]),
        wedges=tuple(_certificate_from_json(c) for c in data["wedges"]),
        coverage=CoverageReport(entries),
    )


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_json_dict(report), sort_keys=True, indent=2)


def report_from_json(text: str) -> AnalysisReport:
    return report_from_json_dict(json.loads(text))


def _fmt_key(key: LineKey) -> str:
    return f"({key.a}, {key.b}, {key.c})"


def render_text(report: AnalysisReport) -> str:
    """Human-readable report."""
    out: List[str] = []
    out.append(f"points: {report.n}")
    sizes = ", ".join(f"{count} line(s) with {size} points" for size, count in report.line_size_histogram.items())
    out.append(f"spanned lines: {report.line_count} ({sizes})")
    out.append(f"max points on a line: {report.max_line_size}")
    out.append(f"3-bounded: {'yes' if report.three_bounded else 'no'}")
    out.append(f"simple lines: {len(report.simple_lines)}")
    for line in report.simple_lines:
        i, j = line.endpoints
        out.append(f"  {_fmt_key(line.key)} through points {i} and {j}")
    out.append(f"simple wedges: {len(report.wedges)}")
    for cert in report.wedges:
        out.append(
            f"  apex {cert.apex}: arms {cert.arm1} (line {_fmt_key(cert.key1)}) "
            f"and {cert.arm2} (line {_fmt_key(cert.key2)})"
        )
    covered = sum(1 for e in report.coverage.entries if e.covered)
    out.append(f"coverage: {covered}/{len(report.coverage.entries)} simple lines belong to a wedge")
    for entry in report.coverage.entries:
        i, j = entry.line.endpoints
        if entry.covered:
            out.append(
                f"  {_fmt_key(entry.line.key)} ({i},{j}): covered via apex {entry.certificate.apex}"
            )
        else:
            out.append(f"  {_fmt_key(entry.line.key)} ({i},{j}): uncovered")
    return "\n".join(out)

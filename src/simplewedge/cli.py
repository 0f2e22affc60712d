"""Command-line surface.

Subcommands: analyze, wedges, orbit, generate, conjecture. Exit codes:
0 normal, 2 invalid input or usage, 3 a conjecture counterexample was found
(its points are persisted to a file named in the output), 4 an internal
invariant failed (a bug in simplewedge).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .constructions import ConstructionError, closed_orbit_config, g_extended, nine_point, six_point
from .incidence import (
    Configuration,
    ConfigurationError,
    InternalInvariantError,
    NotThreeBoundedError,
    build_configuration,
    is_ell_bounded,
    simple_lines,
)
from .orbits import base_line, maximal_orbit, orbit_trace
from .pointio import PointParseError, parse_points, write_points
from .report import _fmt_key, analyze, render_text, report_to_json
from .search import exhaustive_subset_count, search_with_stats, write_counterexample
from .svgout import render_svg
from .wedges import brute_force_wedges, find_wedge_from_line


def _load_config(path: str) -> Configuration:
    text = Path(path).read_text(encoding="utf-8")
    return build_configuration(parse_points(text))


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args.file)
    report = analyze(config)
    if args.json:
        print(report_to_json(report))
    else:
        print(render_text(report))
    if args.svg:
        Path(args.svg).write_text(render_svg(config, report), encoding="utf-8")
        print(f"svg written to {args.svg}", file=sys.stderr)
    return 0


def _cmd_wedges(args: argparse.Namespace) -> int:
    config = _load_config(args.file)
    if args.method == "orbit":
        if not is_ell_bounded(config, 3):
            raise NotThreeBoundedError("the orbit method requires a 3-bounded configuration")
        for line in simple_lines(config):
            base = base_line(config, *line.endpoints)
            cert = find_wedge_from_line(config, base)
            label = f"line {_fmt_key(line.key)} through {line.endpoints[0]},{line.endpoints[1]}"
            if cert is None:
                print(f"{label}: no wedge")
            else:
                print(f"{label}: wedge apex {cert.apex} arms {cert.arm1},{cert.arm2}")
    else:
        certs = brute_force_wedges(config)
        print(f"{len(certs)} wedge(s)")
        for cert in certs:
            print(
                f"apex {cert.apex}: arms {cert.arm1},{cert.arm2} "
                f"lines {_fmt_key(cert.key1)} {_fmt_key(cert.key2)}"
            )
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    config = _load_config(args.file)
    if not is_ell_bounded(config, 3):
        raise NotThreeBoundedError("orbit walks require a 3-bounded configuration")
    base = base_line(config, args.a, args.b)
    orbit = maximal_orbit(config, base, args.start)
    for line in orbit_trace(config, orbit):
        print(line)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "six":
        config = six_point()
    elif args.kind == "nine":
        config = nine_point()
    elif args.kind == "closed-orbit":
        if args.k is None:
            raise ValueError("closed-orbit requires --k")
        config = closed_orbit_config(args.k)
    else:
        if args.m is None:
            raise ValueError("g-ext requires --m")
        config = g_extended(args.m)
    text = write_points(config.points)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{len(config.points)} points written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    if args.exhaustive:
        if args.grid is None:
            raise ValueError("exhaustive mode requires --grid")
        total = exhaustive_subset_count(args.n, args.grid)
        print(f"{total} subsets to scan", file=sys.stderr, flush=True)
        failures, stats = search_with_stats(args.n, grid=args.grid)
        print(
            f"{stats.subsets_scanned} subsets scanned "
            f"({stats.subsets_skipped} collinear skipped), {len(failures)} failures"
        )
    else:
        failures, stats = search_with_stats(
            args.n, trials=args.trials, seed=args.seed, coord_range=args.range
        )
        print(
            f"{stats.trials} trials run ({stats.collinear_rejections} collinear "
            f"draws resampled), {len(failures)} failures"
        )
    if not failures:
        return 0
    for result in failures:
        name = write_counterexample(result, args.grid if args.exhaustive else None)
        print(f"wedge-free configuration persisted to {name}")
    return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplewedge",
        description="Exact analysis of planar point configurations: simple lines, "
        "simple wedges, orbit decompositions, and conjecture search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a point file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--svg", metavar="OUT", help="also write an SVG rendering")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("wedges", help="find simple wedges")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=["orbit", "brute"],
        default="brute",
        help="orbit walks per simple line (3-bounded only) or the brute-force oracle",
    )
    p.set_defaults(func=_cmd_wedges)

    p = sub.add_parser("orbit", help="trace a maximal orbit above a simple line")
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True, help="index of base point a")
    p.add_argument("--b", type=int, required=True, help="index of base point b")
    p.add_argument("--start", type=int, required=True, help="index of the first orbit point")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("generate", help="emit a reference configuration as a point file")
    p.add_argument("kind", choices=["six", "nine", "closed-orbit", "g-ext"])
    p.add_argument("--k", type=int, help="closed-orbit size parameter (k >= 2, gives 2k+2 points)")
    p.add_argument("--m", type=int, help="g-ext triple count (odd, gives 6+3m points)")
    p.add_argument("-o", "--output", metavar="OUT", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("conjecture", help="search odd-size configurations for wedge-free ones")
    p.add_argument("--n", type=int, required=True, help="configuration size (odd)")
    p.add_argument("--trials", type=int, default=1000, help="random-mode trial count")
    p.add_argument("--seed", type=int, default=0, help="random-mode seed")
    p.add_argument("--range", type=int, default=50, help="random-mode coordinate range")
    p.add_argument("--exhaustive", action="store_true", help="scan all n-subsets of a grid")
    p.add_argument("--grid", type=int, help="exhaustive-mode grid side length")
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        PointParseError,
        ConfigurationError,
        NotThreeBoundedError,
        ConstructionError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

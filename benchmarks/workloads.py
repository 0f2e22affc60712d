"""The three workloads: how each builds its inputs, issues a request to
simplewedge and checks the answer.

A request is one call a user waits for: one search trial (`search-random`),
one exhaustive scan (`search-exhaustive`) or one analyze-and-render of a
point file (`analyze-corpus`). An op is the unit `ops_per_s` counts: a trial,
a scanned subset or an analyzed configuration. Every request starts from raw
input and builds its own `Configuration`, so no request reuses the incidence
structure cached on an earlier one.

A round issues requests 0 .. ROUND-1, the same inputs every round.
`check` runs the first time a request is seen; every repeat must give a
byte-identical answer (`signature`), traced or not.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from oracle import judge

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text(encoding="utf-8"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def coordinates(points) -> List[tuple]:
    return [(p.x, p.y) for p in points]


class SearchRandom:
    """Random conjecture search at n=13, one trial per request."""

    name = "search-random"
    N = 13
    RANGE = 50
    ROUND = 100

    def setup(self, sw, seed: int) -> dict:
        return {"seed": seed}

    def request(self, inputs: dict, index: int) -> int:
        # each trial gets its own search seed, derived from the workload seed
        digest = hashlib.blake2b(f"{inputs['seed']}/{index}".encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def ops(self, request) -> int:
        return 1

    def call(self, sw, trial_seed: int):
        return sw.search_with_stats(self.N, trials=1, seed=trial_seed, coord_range=self.RANGE)

    def signature(self, output):
        failures, stats = output
        return tuple((r.trial, tuple(coordinates(r.points))) for r in failures), stats

    def check(self, sw, trial_seed: int, output) -> Tuple[int, List[str]]:
        failures, stats = output
        config, rejected = sw.sample_configuration(self.N, self.RANGE, sw.trial_rng(trial_seed, 0))
        verdict = judge(coordinates(config.points))
        problems = []
        if stats.trials != 1 or stats.collinear_rejections != rejected:
            problems.append(f"stats {stats} disagree with the sampled input ({rejected} rejections)")
        if failures:
            problems.append("wedge-free find" + ("" if not verdict.has_wedge else " where the oracle sees a wedge"))
        elif not verdict.has_wedge:
            problems.append("the oracle finds the input wedge-free but the search did not report it")
        return (1 if problems else 0), problems


class SearchExhaustive:
    """Every 5-subset of the 4x4 lattice, one scan per request."""

    name = "search-exhaustive"
    N = 5
    GRID = 4
    ROUND = 1
    SUBSETS = math.comb(GRID * GRID, N)

    def __init__(self) -> None:
        self._expected = None

    def setup(self, sw, seed: int) -> dict:
        return {}

    def request(self, inputs: dict, index: int) -> str:
        return "scan"

    def ops(self, request) -> int:
        return self.SUBSETS

    def call(self, sw, request):
        return sw.search_with_stats(self.N, grid=self.GRID)

    def signature(self, output):
        failures, stats = output
        return tuple((r.trial, tuple(coordinates(r.points))) for r in failures), stats

    def expected(self) -> Tuple[int, Dict[int, tuple]]:
        """Collinear-subset count and wedge-free subsets by index, from the oracle,
        over the documented row-major lattice order."""
        if self._expected is None:
            cells = [(i % self.GRID, i // self.GRID) for i in range(self.GRID * self.GRID)]
            collinear, free = 0, {}
            for index, subset in enumerate(combinations(cells, self.N)):
                verdict = judge(subset)
                if verdict.collinear:
                    collinear += 1
                elif not verdict.has_wedge:
                    free[index] = subset
            self._expected = (collinear, free)
        return self._expected

    def check(self, sw, request, output) -> Tuple[int, List[str]]:
        failures, stats = output
        collinear, free = self.expected()
        pinned = PINNED[self.name]
        counts = (stats.mode, stats.subsets_scanned, stats.subsets_skipped)
        if counts != ("exhaustive", self.SUBSETS, collinear) or counts[1:] != (
            pinned["subsets_scanned"],
            pinned["subsets_skipped"],
        ):
            return self.SUBSETS, [f"stats {stats} differ from {self.SUBSETS} subsets, {collinear} collinear"]
        found = {r.trial: tuple((int(x), int(y)) for x, y in coordinates(r.points)) for r in failures}
        problems = []
        if found != free:
            problems.append("wedge-free subsets differ from the oracle's")
        if found:
            problems.append(f"{len(found)} wedge-free find(s)")
        # every wedge-free subset, found or missed, is a failed op
        return len(found.keys() | free.keys()), problems


# (name, builder, argument) of the fixed members; the sampled ones are named by seed
CONSTRUCTIONS = [(f"closed_orbit_config({k})", "closed_orbit_config", k) for k in (8, 10, 12, 14)] + [
    (f"g_extended({m})", "g_extended", m) for m in (5, 7, 9)
]
SAMPLE_SIZES = (18, 20, 22, 24, 26, 28)
SAMPLE_RANGE = 50


class AnalyzeCorpus:
    """`analyze --json --svg`, plus `wedges --method orbit` on 3-bounded inputs,
    over the 13-member corpus; one configuration per request."""

    name = "analyze-corpus"
    ROUND = len(CONSTRUCTIONS) + len(SAMPLE_SIZES)

    def setup(self, sw, seed: int) -> dict:
        start = perf_counter()
        members = [(name, getattr(sw, builder)(arg).points) for name, builder, arg in CONSTRUCTIONS]
        built = perf_counter() - start
        for k, n in enumerate(SAMPLE_SIZES):
            config, _ = sw.sample_configuration(n, SAMPLE_RANGE, sw.trial_rng(seed, k))
            members.append((f"sample_configuration({n},seed={seed})", config.points))
        return {
            "members": [(name, sw.write_points(points), tuple(coordinates(points))) for name, points in members],
            "phases": {"constructions.build": built},
        }

    def request(self, inputs: dict, index: int):
        return inputs["members"][index]

    def ops(self, request) -> int:
        return 1

    def call(self, sw, member):
        _, text, _ = member
        config = sw.build_configuration(sw.parse_points(text))
        report = sw.analyze(config)
        js = sw.report_to_json(report)
        svg = sw.render_svg(config, report)
        orbit = []
        if sw.is_ell_bounded(config, 3):
            for line in sw.simple_lines(config):
                cert = sw.find_wedge_from_line(config, sw.base_line(config, *line.endpoints))
                orbit.append((line.endpoints, None if cert is None else (cert.apex, cert.arm1, cert.arm2)))
        return js, svg, tuple(orbit)

    def signature(self, output):
        js, svg, orbit = output
        return _sha(js), _sha(svg), orbit

    def check(self, sw, member, output) -> Tuple[int, List[str]]:
        name, _, points = member
        js, svg, orbit = output
        verdict = judge(points)
        data = json.loads(js)
        problems = []
        if (data["n"], data["max_line_size"], data["three_bounded"]) != (
            verdict.n,
            verdict.max_line_size,
            verdict.max_line_size <= 3,
        ):
            problems.append("n, max_line_size or three_bounded differ from the oracle's")
        if {tuple(s["endpoints"]) for s in data["simple_lines"]} != verdict.simple_lines:
            problems.append("simple lines differ from the oracle's")
        if len(data["wedges"]) != verdict.wedges:
            problems.append(f"{len(data['wedges'])} wedges, the oracle counts {verdict.wedges}")
        covered = {tuple(e["endpoints"]): e["covered"] for e in data["coverage"]}
        if covered != verdict.covered:
            problems.append("coverage differs from the oracle's")
        if sw.report_to_json(sw.report_from_json(js)) != js:
            problems.append("JSON report does not round-trip")
        if data["three_bounded"]:
            if {ends for ends, _ in orbit} != verdict.simple_lines:
                problems.append("orbit route did not visit every simple line")
            for ends, cert in orbit:
                if (cert is not None) != verdict.covered.get(ends):
                    problems.append(f"orbit route on {ends} disagrees with coverage")
                elif cert is not None and not _is_wedge(verdict, *cert):
                    problems.append(f"orbit route on {ends} returned a non-wedge {cert}")
        elif orbit:
            problems.append("orbit route ran on a configuration that is not 3-bounded")
        pinned = PINNED["analyze-corpus"].get(name)
        if pinned is not None and pinned != {"json": _sha(js), "svg": _sha(svg)}:
            problems.append("output differs from the pinned SHA-256 digests")
        return (1 if problems else 0), [f"{name}: {p}" for p in problems]


def _is_wedge(verdict, apex: int, arm1: int, arm2: int) -> bool:
    lines = verdict.simple_lines
    return arm1 != arm2 and tuple(sorted((apex, arm1))) in lines and tuple(sorted((apex, arm2))) in lines


WORKLOADS = {w.name: w for w in (SearchRandom, SearchExhaustive, AnalyzeCorpus)}

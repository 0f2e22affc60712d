"""Outside-in tracing of simplewedge's layers.

`Tracer.installed(sw)` replaces each public function named in TRACED, in
every loaded simplewedge module that refers to it, with a wrapper that records
a span (name, start, end, parent span, op id) and the counts listed in
`_count`. Nothing inside the package changes; the originals are put back on
exit. Spans stay in memory until the run writes them out.

`line_through` is not wrapped: it runs once per point pair, so a wrapper
would cost more than the call. Its time is measured instead by replaying it
over every pair of every configuration an op built, after the op's span has
ended (`replay_geometry`). That time is a share of `incidence.spanned_lines`,
not added to it.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from itertools import combinations
from time import perf_counter
from types import ModuleType
from typing import Dict, List, Optional, Tuple

TRACED = (
    "search.search_with_stats",
    "search.sample_configuration",
    "pointio.parse_points",
    "incidence.build_configuration",
    "incidence.spanned_lines",
    "wedges.brute_force_wedges",
    "wedges.wedge_coverage",
    "wedges.find_wedge_from_line",
    "orbits.decompose",
    "report.analyze",
    "report.report_to_json",
    "svgout.render_svg",
)

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._op_inputs: List[tuple] = []
        self._last_config = None

    def _enter(self) -> Tuple[int, Optional[int]]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid: int, parent: Optional[int], name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, start, end, parent, self.op)

    @contextmanager
    def op_span(self, op: int):
        self.op = op
        sid, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, "op", start)
            self.op = None

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid, parent, name, start)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "incidence.build_configuration":
            if self.op is not None:
                self._op_inputs.append(result.points)
        elif name == "incidence.spanned_lines":
            # count each configuration's structure once, however often it is asked for
            config = args[0]
            if config is not self._last_config:
                self._last_config = config
                n = len(config.points)
                c["incidence.pairs"] += n * (n - 1) // 2
                c["incidence.lines"] += len(result.lines)
                c["incidence.simple_lines"] += sum(1 for idx in result.lines.values() if len(idx) == 2)
        elif name == "wedges.brute_force_wedges":
            c["wedges.certificates"] += len(result)
            c["wedges.decisions"] += 1
        elif name == "orbits.decompose":
            orbits = list(result.closed_orbits)
            if result.open_orbit is not None:
                orbits.append(result.open_orbit)
            c["orbits.walk_points"] += sum(len(set(o.seq)) for o in orbits)
        elif name == "report.report_to_json":
            c["report.json_bytes"] += len(result.encode())
        elif name == "svgout.render_svg":
            c["svgout.svg_bytes"] += len(result.encode())
        elif name == "search.search_with_stats":
            stats = result[1]
            c["search.collinear_rejections"] += stats.collinear_rejections
            c["search.subsets_skipped"] += stats.subsets_skipped

    @contextmanager
    def installed(self, sw):
        """Wrap the TRACED functions everywhere the package refers to them."""
        modules = [sw] + [m for m in vars(sw).values() if isinstance(m, ModuleType) and m.__name__.startswith(sw.__name__ + ".")]
        patches = []
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(getattr(sw, module), attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    patches.append((m, key, original))
                    setattr(m, key, wrapper)
        try:
            yield self
        finally:
            for m, key, original in reversed(patches):
                setattr(m, key, original)
            self._last_config = None

    def replay_geometry(self, sw, op: int) -> None:
        """Time `line_through` over every pair of the configurations op `op` built."""
        line_through = sw.line_through
        calls = 0
        self.op = op
        sid, parent = self._enter()
        start = perf_counter()
        for points in self._op_inputs:
            for p, q in combinations(points, 2):
                line_through(p, q)
                calls += 1
        self._exit(sid, parent, "geometry.line_through", start)
        self.op = None
        self.counts["geometry.line_through_calls"] += calls
        self._op_inputs = []

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the time its children cover."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - children[k]
        return dict(totals)

"""Run one simplewedge benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload search-random --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. simplewedge is imported from that checkout's
`src/` and from nowhere else. One client issues requests one at a time
(a closed loop on one thread), in rounds over a fixed request set, until the
requests have kept it busy for `--seconds`.

`--trace 0` measures the end-to-end metrics with no tracing installed.
`--trace 1` alternates untraced and traced rounds and reports the per-layer
metrics (see tracing.py). Every answer is checked (see workloads.py). The
last line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the metrics are those BENCHMARK.json lists for the
mode. Times are scaled to a reference host speed (see hostspeed.py); the
raw figures are printed as `raw.*`. The full record, with every metric, the
run's provenance and, when traced, every span, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from hostspeed import SEGMENT_S, HostClock, kernel_seconds, scaled
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 15
MIN_ROUNDS = 3
# a run whose requests keep failing stops here and reports what it has
MAX_WALL_S = 150

# per-layer metric -> the span whose self time it sums
LAYER_SPANS = {
    "geometry.line_through_s": "geometry.line_through",
    "incidence.build_configuration_s": "incidence.build_configuration",
    "incidence.spanned_lines_s": "incidence.spanned_lines",
    "wedges.brute_force_s": "wedges.brute_force_wedges",
    "wedges.coverage_s": "wedges.wedge_coverage",
    "orbits.decompose_s": "orbits.decompose",
    "report.analyze_s": "report.analyze",
    "report.to_json_s": "report.report_to_json",
    "svgout.render_s": "svgout.render_svg",
    "pointio.parse_s": "pointio.parse_points",
    "search.sample_s": "search.sample_configuration",
}
LAYER_COUNTS = (
    "geometry.line_through_calls",
    "incidence.pairs",
    "incidence.lines",
    "incidence.simple_lines",
    "wedges.certificates",
    "orbits.walk_points",
    "report.json_bytes",
    "svgout.svg_bytes",
    "search.collinear_rejections",
    "search.subsets_skipped",
)


class Refused(Exception):
    """The benchmark cannot run against this directory."""


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_frac", "frac"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _program_modules() -> Dict[str, object]:
    return {k: m for k, m in sys.modules.items() if k == "simplewedge" or k.startswith("simplewedge.")}


def import_program():
    """Import simplewedge afresh from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    init = src / "simplewedge" / "__init__.py"
    if not init.is_file():
        raise Refused(f"{init} does not exist; run from the root of a simplewedge checkout")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in _program_modules():
        del sys.modules[name]
    sw = importlib.import_module("simplewedge")
    if Path(sw.__file__).resolve() != init.resolve():
        raise Refused(f"simplewedge resolved to {sw.__file__}, not {init}")
    return sw


class SetUps:
    """SETUP_REPS timed set-ups: a fresh import of simplewedge plus input
    generation, each bracketed by the reference kernel and scaled. The first
    is the run's own; the others are spread over the run (`spread`), so that
    their median does not rest on one moment, and leave the run's modules
    loaded."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.raw: List[float] = []
        self.times: List[float] = []
        self.phases: List[dict] = []
        self.sw, self.inputs = self._one()

    def _one(self):
        before = kernel_seconds()
        start = perf_counter()
        sw = import_program()
        inputs = self.workload.setup(sw, self.seed)
        raw = perf_counter() - start
        self.raw.append(raw)
        self.times.append(scaled(raw, before, kernel_seconds()))
        factor = self.times[-1] / raw
        self.phases.append({name: t * factor for name, t in inputs.get("phases", {}).items()})
        return sw, inputs

    def spread(self, done: float) -> None:
        """Time set-ups until their count matches the share `done` of the run."""
        while len(self.times) < SETUP_REPS and len(self.times) < 1 + done * (SETUP_REPS - 1):
            saved = _program_modules()
            try:
                self._one()
            finally:
                for name in _program_modules():
                    del sys.modules[name]
                sys.modules.update(saved)


class Runner:
    """Issues requests, checks every answer and tallies attempted and failed ops."""

    def __init__(self, sw, workload, inputs: dict):
        self.sw = sw
        self.workload = workload
        self.inputs = inputs
        self.clock = HostClock()
        self.answers: Dict[object, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _tally(self, ops: int, failed: int, problems: List[str]) -> None:
        self.attempted += ops
        self.failed += failed
        self.problems.extend(problems)

    def issue(self, index: int, tracer: Optional[Tracer] = None):
        """Issue request `index`; return (latency in seconds or None if it raised, ops)."""
        wl = self.workload
        request = wl.request(self.inputs, index)
        ops = wl.ops(request)
        try:
            if tracer is None:
                start = perf_counter()
                output = wl.call(self.sw, request)
                latency = perf_counter() - start
            else:
                with tracer.op_span(index):
                    start = perf_counter()
                    output = wl.call(self.sw, request)
                    latency = perf_counter() - start
                tracer.replay_geometry(self.sw, index)
        except Exception as exc:  # a request that raises is failed ops; the run goes on
            self._tally(ops, ops, [f"request {index} raised {exc!r}"])
            return None, ops
        answer = wl.signature(output)
        if request not in self.answers:
            self.answers[request] = answer
            self._tally(ops, *wl.check(self.sw, request, output))
        elif self.answers[request] != answer:
            self._tally(ops, ops, [f"request {index} answered differently than before"])
        else:
            self._tally(ops, 0, [])
        return latency, ops

    def round(self, tracer: Optional[Tracer] = None):
        """Issue requests 0 .. ROUND-1 once. Returns the raw and the scaled
        latency of each request that completed, by index, and their ops."""
        raw: Dict[int, float] = {}
        latencies: Dict[int, float] = {}
        pending: Dict[int, float] = {}
        done = 0
        for index in range(self.workload.ROUND):
            latency, ops = self.issue(index, tracer)
            if latency is not None:
                pending[index] = latency
                done += ops
            if sum(pending.values()) >= SEGMENT_S or index == self.workload.ROUND - 1:
                factor = self.clock.factor()
                raw.update(pending)
                latencies.update((i, t * factor) for i, t in pending.items())
                pending = {}
        return raw, latencies, done


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def measure(runner: Runner, seconds: float, setups: SetUps) -> dict:
    """Untraced rounds until busy for `seconds` (and at least MIN_ROUNDS).

    A request's latency is the median of its repetitions, one per round;
    `latency_*` are percentiles of that over the round's requests. Times are
    scaled (hostspeed.py); the raw figures go to the record as `raw.*`.
    """
    raw: Dict[int, List[float]] = {}
    latencies: Dict[int, List[float]] = {}
    rates: List[float] = []
    raw_rates: List[float] = []
    busy, wall = 0.0, perf_counter()
    while (busy < seconds or len(rates) < MIN_ROUNDS) and perf_counter() - wall < MAX_WALL_S:
        round_raw, round_scaled, ops = runner.round()
        if round_raw:
            busy += sum(round_raw.values())
            rates.append(ops / sum(round_scaled.values()))
            raw_rates.append(ops / sum(round_raw.values()))
        for index in round_raw:
            raw.setdefault(index, []).append(round_raw[index])
            latencies.setdefault(index, []).append(round_scaled[index])
        setups.spread(busy / seconds)
    setups.spread(1.0)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not rates:
        return {"rounds": 0}
    per_request = [statistics.median(v) for v in latencies.values()]
    raw_per_request = [statistics.median(v) for v in raw.values()]
    return {
        "rounds": len(rates),
        "requests": len(per_request),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(per_request) * 1000,
        "latency_p90_ms": p90(per_request) * 1000,
        "peak_rss_mib": peak_rss,
        "raw.ops_per_s": statistics.median(raw_rates),
        "raw.latency_p50_ms": statistics.median(raw_per_request) * 1000,
        "raw.latency_p90_ms": p90(raw_per_request) * 1000,
    }


def _layer_metrics(tracer: Tracer, ops: int, factor: float) -> dict:
    self_times = tracer.self_times()
    metrics = {name: self_times.get(span, 0.0) * factor / ops for name, span in LAYER_SPANS.items()}
    metrics.update({name: tracer.counts.get(name, 0) / ops for name in LAYER_COUNTS})
    decisions = tracer.counts.get("wedges.decisions", 0)
    metrics["wedges.certificates_per_decision"] = tracer.counts.get("wedges.certificates", 0) / decisions if decisions else 0.0
    return metrics


def trace(runner: Runner, seconds: float, setups: SetUps):
    """Alternate untraced and traced rounds until busy for `seconds`.

    Per-layer metrics are per op and the median over traced rounds; each
    round's layer times are scaled by that round's own factor. Counts are
    the same in every round. Returns (metrics, tracers).
    """
    plain: List[float] = []
    traced: List[float] = []
    per_round: List[dict] = []
    tracers: List[Tracer] = []
    busy, wall = 0.0, perf_counter()
    while len(traced) < MIN_ROUNDS or (busy < seconds and perf_counter() - wall < MAX_WALL_S):
        raw, latencies, _ = runner.round()
        plain.append(sum(latencies.values()))
        busy += sum(raw.values())
        tracer = Tracer()
        with tracer.installed(runner.sw):
            raw, latencies, ops = runner.round(tracer)
        traced.append(sum(latencies.values()))
        busy += sum(raw.values())
        tracers.append(tracer)
        factor = sum(latencies.values()) / sum(raw.values()) if raw else 1.0
        per_round.append(_layer_metrics(tracer, max(ops, 1), factor))
        setups.spread(busy / seconds)
    setups.spread(1.0)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, tracers


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workload = WORKLOADS[args.workload]()
        setups = SetUps(workload, args.seed)
    except (Refused, OSError) as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2

    sw = setups.sw
    runner = Runner(sw, workload, setups.inputs)
    tracers: List[Tracer] = []
    if args.trace:
        metrics, tracers = trace(runner, args.seconds, setups)
        metrics["constructions.build_s"] = statistics.median(p.get("constructions.build", 0.0) for p in setups.phases)
        reported = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = measure(runner, args.seconds, setups)
        metrics["setup_s"] = statistics.median(setups.times)
        metrics["raw.setup_s"] = statistics.median(setups.raw)
        reported = [m["name"] for m in spec["end_to_end"]]
    rounds = metrics.pop("rounds", len(tracers))
    requests = metrics.pop("requests", None)
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    correct = runner.attempted > 0 and runner.failed == 0 and all(name in metrics for name in reported)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "simplewedge_file": sw.__file__,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": rounds,
        "requests": requests,
        "kernel_ms": {
            "median": statistics.median(runner.clock.kernel_times) * 1000,
            "min": min(runner.clock.kernel_times) * 1000,
            "max": max(runner.clock.kernel_times) * 1000,
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": failed_frac,
        "problems": runner.problems[:50],
        "setup_times_s": setups.times,
        "raw_setup_times_s": setups.raw,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if tracers:
        base, spans = 0, []
        for number, tracer in enumerate(tracers):
            for name, start, end, parent, op in tracer.spans:
                spans.append([name, start, end, None if parent is None else parent + base, op, number])
            base += len(tracer.spans)
        record["spans"] = {"fields": ["name", "start", "end", "parent", "op", "round"], "rows": spans}
    path.write_text(json.dumps(record), encoding="utf-8")

    for problem in runner.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {k: record[k] for k in ("workload", "seed", "seconds", "trace", "simplewedge_file", "git_sha", "python", "nproc", "rounds", "requests", "kernel_ms")}
    print(json.dumps(info))
    print(f"failed_frac {failed_frac} frac ({runner.failed}/{runner.attempted} ops)")
    for name, entry in record["metrics"].items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: record["metrics"][name] for name in reported if name in record["metrics"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

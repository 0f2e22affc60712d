"""Tests for the benchmark itself: python3 -m pytest benchmarks"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from oracle import judge
from tracing import Tracer
from workloads import AnalyzeCorpus, SearchExhaustive, SearchRandom, coordinates


@pytest.fixture(scope="module")
def sw():
    return run.import_program()


def _oracle_cases(sw):
    cases = [sw.six_point(), sw.nine_point(), sw.closed_orbit_config(4)]
    for trial, n in enumerate((5, 7, 9, 11, 13)):
        cases.append(sw.sample_configuration(n, 4, sw.trial_rng(7, trial))[0])
    return cases


def test_oracle_agrees_with_brute_force_wedges(sw):
    for config in _oracle_cases(sw):
        verdict = judge(coordinates(config.points))
        certs = sw.brute_force_wedges(config)
        assert verdict.simple_lines == {line.endpoints for line in sw.simple_lines(config)}
        assert verdict.wedges == len(certs)
        assert verdict.max_line_size == sw.spanned_lines(config).max_line_size
        assert not verdict.collinear
    assert not judge(coordinates(sw.six_point().points)).has_wedge


def test_oracle_flags_collinear_input():
    assert judge([(0, 0), (1, 1), (2, 2)]).collinear


def _small_corpus(sw):
    members = [("six_point()", sw.six_point()), ("nine_point()", sw.nine_point()), ("closed_orbit_config(4)", sw.closed_orbit_config(4))]
    return {"members": [(name, sw.write_points(c.points), tuple(coordinates(c.points))) for name, c in members]}


def test_corrupted_report_is_a_failed_op(sw, monkeypatch):
    wl = AnalyzeCorpus()
    runner = run.Runner(sw, wl, _small_corpus(sw))
    assert runner.issue(1)[0] is not None and runner.failed == 0
    analyze = sw.analyze
    monkeypatch.setattr(sw, "analyze", lambda config: dataclasses.replace(analyze(config), wedges=analyze(config).wedges[:-1]))
    runner = run.Runner(sw, wl, _small_corpus(sw))
    runner.issue(1)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert any("wedges, the oracle counts" in p for p in runner.problems)


def test_wedge_free_find_is_a_failed_op(sw, monkeypatch):
    search = sw.search_with_stats

    def fake(n, **kwargs):
        failures, stats = search(n, **kwargs)
        config, _ = sw.sample_configuration(n, kwargs["coord_range"], sw.trial_rng(kwargs["seed"], 0))
        return [sw.ConjectureTrialResult(kwargs["seed"], 0, n, config.points, False)], stats

    monkeypatch.setattr(sw, "search_with_stats", fake)
    runner = run.Runner(sw, SearchRandom(), SearchRandom().setup(sw, 0))
    runner.issue(0)
    assert runner.failed == 1


def test_changed_answer_on_repeat_is_a_failed_op(sw):
    wl = AnalyzeCorpus()
    runner = run.Runner(sw, wl, _small_corpus(sw))
    runner.issue(0)
    request = wl.request(runner.inputs, 0)
    runner.answers[request] = ("other",)
    runner.issue(0)
    assert (runner.attempted, runner.failed) == (2, 1)


class TinyExhaustive(SearchExhaustive):
    N, GRID = 5, 3


@pytest.mark.parametrize("wl, inputs", [
    (SearchRandom(), lambda sw: SearchRandom().setup(sw, 3)),
    (TinyExhaustive(), lambda sw: {}),
    (AnalyzeCorpus(), _small_corpus),
])
def test_traced_and_untraced_answers_are_identical(sw, wl, inputs):
    data = inputs(sw)
    requests = [wl.request(data, i) for i in range(3)]
    plain = [wl.signature(wl.call(sw, r)) for r in requests]
    original = sw.report.spanned_lines
    tracer = Tracer()
    with tracer.installed(sw):
        traced = [wl.signature(wl.call(sw, r)) for r in requests]
    assert traced == plain
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert sw.spanned_lines is original and sw.report.spanned_lines is original


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, None, 1), ("inner", 2.0, 5.0, 0, 1), ("inner", 6.0, 7.0, 0, 1)]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_runs_report_every_metric_in_benchmark_json(monkeypatch):
    spec = _spec()
    wl = SearchRandom()
    monkeypatch.setattr(wl, "ROUND", 5)
    setups = run.SetUps(wl, 0)
    runner = run.Runner(setups.sw, wl, setups.inputs)
    metrics = run.measure(runner, 0.01, setups)
    assert len(setups.times) == run.SETUP_REPS and setups.sw.__name__ in sys.modules
    metrics["setup_s"] = 0.1
    traced, _ = run.trace(runner, 0.01, setups)
    assert runner.failed == 0 and not runner.problems
    for entry in spec["end_to_end"]:
        assert entry["name"] in metrics and entry["unit"] == run.unit_of(entry["name"])
    for entry in spec["per_layer"]:
        assert entry["name"] in traced and entry["unit"] == run.unit_of(entry["name"])
    assert traced["incidence.pairs"] == 78


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "search-random", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "refused" in proc.stderr

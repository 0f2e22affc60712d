import json

import pytest

from simplewedge import ConjectureTrialResult, Point, parse_points
from simplewedge.cli import main
from simplewedge.search import SearchStats


@pytest.fixture
def six_file(tmp_path):
    path = tmp_path / "six.txt"
    assert main(["generate", "six", "-o", str(path)]) == 0
    return str(path)


def test_generate_to_stdout(capsys):
    assert main(["generate", "six"]) == 0
    out = capsys.readouterr().out
    assert parse_points(out)[0] == Point(-2, 0)
    assert len(out.strip().splitlines()) == 6


def test_generate_closed_orbit(tmp_path, capsys):
    path = tmp_path / "co.txt"
    assert main(["generate", "closed-orbit", "--k", "3", "-o", str(path)]) == 0
    assert len(parse_points(path.read_text())) == 8


def test_generate_g_ext_requires_odd_m(capsys):
    assert main(["generate", "g-ext", "--m", "2"]) == 2
    assert "odd" in capsys.readouterr().err


def test_generate_missing_parameter(capsys):
    assert main(["generate", "closed-orbit"]) == 2


def test_analyze_text(six_file, capsys):
    assert main(["analyze", six_file]) == 0
    out = capsys.readouterr().out
    assert "points: 6" in out
    assert "simple lines: 3" in out


def test_analyze_json(six_file, capsys):
    assert main(["analyze", six_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 6
    assert data["lines"] == {"count": 7, "sizes": {"2": 3, "3": 4}}
    assert data["three_bounded"] is True
    assert data["wedges"] == []


def test_analyze_writes_svg(six_file, tmp_path, capsys):
    svg_path = tmp_path / "six.svg"
    assert main(["analyze", six_file, "--svg", str(svg_path)]) == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert text.count('class="ln simple"') == 3


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/nowhere.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 x\n")
    assert main(["analyze", str(path)]) == 2
    assert "parse error line 1" in capsys.readouterr().err


def test_analyze_collinear_file(tmp_path, capsys):
    path = tmp_path / "line.txt"
    path.write_text("0 0\n1 1\n2 2\n")
    assert main(["analyze", str(path)]) == 2
    assert "contained in a line" in capsys.readouterr().err


def test_orbit_trace(six_file, capsys):
    assert main(["orbit", six_file, "--a", "0", "--b", "1", "--start", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pos 1: x_1 = 2 (-1, 2) start"
    assert out[-1] == "CLOSED length 4"


def test_orbit_rejects_non_simple_base(six_file, capsys):
    assert main(["orbit", six_file, "--a", "0", "--b", "2", "--start", "3"]) == 2
    assert "not simple" in capsys.readouterr().err


def test_orbit_rejects_unbounded(tmp_path, capsys):
    path = tmp_path / "nine.txt"
    assert main(["generate", "nine", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["orbit", str(path), "--a", "0", "--b", "1", "--start", "2"]) == 2
    assert "3-bounded" in capsys.readouterr().err


def test_wedges_brute(six_file, capsys):
    assert main(["wedges", six_file]) == 0
    assert "0 wedge(s)" in capsys.readouterr().out


def test_wedges_orbit_method(tmp_path, capsys):
    path = tmp_path / "five.txt"
    path.write_text("-2 0\n2 0\n0 1\n0 2\n0 3\n")
    assert main(["wedges", str(path), "--method", "orbit"]) == 0
    out = capsys.readouterr().out
    assert "wedge apex" in out


def test_wedges_orbit_method_rejects_unbounded(tmp_path, capsys):
    path = tmp_path / "nine.txt"
    assert main(["generate", "nine", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["wedges", str(path), "--method", "orbit"]) == 2
    assert "3-bounded" in capsys.readouterr().err


def test_conjecture_exhaustive(capsys):
    assert main(["conjecture", "--n", "5", "--exhaustive", "--grid", "3"]) == 0
    assert "126 subsets scanned" in capsys.readouterr().out


def test_conjecture_exhaustive_announces_subset_count_on_stderr(capsys):
    assert main(["conjecture", "--n", "7", "--exhaustive", "--grid", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "11440 subsets to scan\n"
    assert captured.out == "11440 subsets scanned (0 collinear skipped), 0 failures\n"


def test_conjecture_rejects_intractable_grid(monkeypatch, capsys):
    from simplewedge import search

    def no_table(grid):
        raise AssertionError("the line table must not be built for a refused grid")

    monkeypatch.setattr(search, "_grid_line_table", no_table)
    assert main(["conjecture", "--n", "5", "--exhaustive", "--grid", "1000"]) == 2
    captured = capsys.readouterr()
    assert f"grid must be at most {search.MAX_GRID}" in captured.err
    assert "subsets to scan" not in captured.err


def test_conjecture_random(capsys):
    assert main(["conjecture", "--n", "7", "--trials", "25", "--seed", "1", "--range", "40"]) == 0
    assert "25 trials run" in capsys.readouterr().out


def test_conjecture_rejects_even_n(capsys):
    assert main(["conjecture", "--n", "4", "--trials", "5"]) == 2
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [(["--trials", "-5"], "trials must be non-negative"), (["--range", "-2"], "range must be at least 1")],
)
def test_conjecture_rejects_nonsense_arguments(flags, message, capsys):
    assert main(["conjecture", "--n", "5", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "trials run" not in captured.out


def test_internal_invariant_error_exit_code(monkeypatch, capsys):
    import simplewedge.cli as cli_module
    from simplewedge import InternalInvariantError

    def broken_search(n, **kwargs):
        raise InternalInvariantError("incidence is broken")

    monkeypatch.setattr(cli_module, "search_with_stats", broken_search)
    assert main(["conjecture", "--n", "5", "--trials", "5"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: incidence is broken\n"


def test_conjecture_counterexample_exit_code(tmp_path, monkeypatch, capsys):
    """A wedge-free find must be persisted to a file named in the output and
    flip the exit code to 3."""
    triangle_points = (Point(0, 0), Point(1, 0), Point(0, 1))
    fake = ConjectureTrialResult(seed=1, trial=4, n=3, points=triangle_points, wedge_found=False)

    def fake_search(n, **kwargs):
        return [fake], SearchStats("random", trials=5)

    import simplewedge.cli as cli_module

    monkeypatch.setattr(cli_module, "search_with_stats", fake_search)
    monkeypatch.chdir(tmp_path)
    assert main(["conjecture", "--n", "3", "--trials", "5"]) == 3
    out = capsys.readouterr().out
    assert "counterexample-n3-seed1-trial4.txt" in out
    saved = parse_points((tmp_path / "counterexample-n3-seed1-trial4.txt").read_text())
    assert tuple(saved) == triangle_points


def test_counterexample_files_do_not_collide(tmp_path, monkeypatch, capsys):
    """Finds from different seeds, and exhaustive finds from the experiment
    script, are written by one writer under distinct names."""
    import importlib.util
    import sys
    from pathlib import Path

    import simplewedge.cli as cli_module

    triangle_points = (Point(0, 0), Point(1, 0), Point(0, 1))
    monkeypatch.chdir(tmp_path)
    for seed in (1, 2):
        fake = ConjectureTrialResult(seed, 4, 3, triangle_points, False)
        monkeypatch.setattr(cli_module, "search_with_stats", lambda n, **kw: ([fake], SearchStats("random")))
        assert main(["conjecture", "--n", "3", "--seed", str(seed)]) == 3

    script = Path(__file__).resolve().parents[1] / "scripts" / "run_conjecture_search.py"
    spec = importlib.util.spec_from_file_location("run_conjecture_search", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def fake_search(n, **kwargs):
        if kwargs.get("grid") == 3:
            return [ConjectureTrialResult(0, 4, 3, triangle_points, False)], SearchStats("exhaustive")
        return [], SearchStats("exhaustive" if "grid" in kwargs else "random")

    monkeypatch.setattr(module, "search_with_stats", fake_search)
    monkeypatch.setattr(sys, "argv", ["run_conjecture_search.py", "--trials", "1", "--sizes", "5"])
    assert module.main() == 3
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "counterexample-n3-grid3-subset4.txt",
        "counterexample-n3-seed1-trial4.txt",
        "counterexample-n3-seed2-trial4.txt",
    ]
    for path in tmp_path.iterdir():
        assert tuple(parse_points(path.read_text())) == triangle_points


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2

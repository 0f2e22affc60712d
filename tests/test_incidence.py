from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from simplewedge import (
    ConfigurationError,
    LineKey,
    NotThreeBoundedError,
    Point,
    build_configuration,
    collinear,
    is_ell_bounded,
    line_through,
    on_line,
    simple_lines,
    spanned_lines,
    third_point,
)


def test_build_configuration_preserves_order(six):
    assert len(six.points) == 6
    assert six.points[0] == Point(-2, 0)
    assert six.points[5] == Point(0, Fraction(4, 3))


def test_build_configuration_rejects_collinear():
    with pytest.raises(ConfigurationError, match="contained in a line"):
        build_configuration([(0, 0), (1, 1), (2, 2)])


def test_build_configuration_rejects_duplicates():
    with pytest.raises(ConfigurationError, match=r"duplicate point at indices \(0,2\)"):
        build_configuration([(0, 0), (1, 0), (0, 0)])


def test_build_configuration_rejects_too_few():
    with pytest.raises(ConfigurationError, match="too few"):
        build_configuration([(0, 0), (1, 0)])


def test_spanned_lines_six(six):
    inc = spanned_lines(six)
    assert len(inc.lines) == 7
    assert inc.size_histogram() == {2: 3, 3: 4}


def test_spanned_lines_triangle(triangle):
    inc = spanned_lines(triangle)
    assert len(inc.lines) == 3
    assert all(len(idx) == 2 for idx in inc.lines.values())


def test_spanned_lines_nine_has_four_point_line(nine):
    inc = spanned_lines(nine)
    assert (0, 2, 4, 6) in inc.lines.values()


def test_incidence_entries_are_exact(six, nine, triangle):
    for config in (six, nine, triangle):
        inc = spanned_lines(config)
        for key, idx in inc.lines.items():
            assert list(idx) == sorted(idx)
            assert len(idx) >= 2
            listed = set(idx)
            for i, p in enumerate(config.points):
                assert on_line(p, key) == (i in listed)


def test_every_pair_on_exactly_one_line(six, nine, five, triangle):
    for config in (six, nine, five, triangle):
        inc = spanned_lines(config)
        n = len(config.points)
        pair_count = sum(comb(len(idx), 2) for idx in inc.lines.values())
        assert pair_count == comb(n, 2)
        for i, j in combinations(range(n), 2):
            hits = [key for key, idx in inc.lines.items() if i in idx and j in idx]
            assert len(hits) == 1
            assert hits[0] == inc.line_of(i, j)


def test_simple_lines_six(six):
    found = {(line.key, line.endpoints) for line in simple_lines(six)}
    assert found == {
        (LineKey(0, 1, 0), (0, 1)),
        (LineKey(0, 1, -2), (2, 3)),
        (LineKey(1, 0, 0), (4, 5)),
    }


def test_simple_lines_sorted_by_key(nine):
    keys = [line.key for line in simple_lines(nine)]
    assert keys == sorted(keys)


def test_simple_lines_triangle(triangle):
    assert len(simple_lines(triangle)) == 3


def test_simple_lines_nine_includes_base(nine):
    entries = {line.key: line.endpoints for line in simple_lines(nine)}
    assert entries[LineKey(0, 1, 0)] == (0, 1)


def test_is_ell_bounded(six, nine):
    assert is_ell_bounded(six, 3)
    assert not is_ell_bounded(nine, 3)
    assert is_ell_bounded(nine, 4)


def test_is_ell_bounded_rejects_small_ell(six):
    with pytest.raises(ValueError):
        is_ell_bounded(six, 1)


def test_third_point(six, nine):
    assert third_point(six, 1, 2) == 5
    assert third_point(six, 2, 1) == 5
    assert third_point(six, 0, 1) is None
    with pytest.raises(NotThreeBoundedError, match="not 3-bounded on this line"):
        third_point(nine, 0, 2)


def test_third_point_rejects_equal_indices(six):
    with pytest.raises(ValueError):
        third_point(six, 2, 2)


def test_spanned_lines_independent_of_point_order(six):
    # reversing the points permutes indices but must give the same geometry
    reversed_config = build_configuration(list(reversed(six.points)))
    n = len(six.points)
    original = spanned_lines(six)
    shuffled = spanned_lines(reversed_config)
    assert set(original.lines) == set(shuffled.lines)
    for key, idx in original.lines.items():
        mapped = tuple(sorted(n - 1 - i for i in idx))
        assert shuffled.lines[key] == mapped


coords = st.integers(-8, 8)
point_lists = st.lists(
    st.tuples(coords, coords), min_size=3, max_size=9, unique=True
)


def _not_all_collinear(pts):
    first = Point(*pts[0])
    second = Point(*pts[1])
    return any(not collinear(first, second, Point(*p)) for p in pts[2:])


@given(point_lists)
def test_pair_coverage_random(pts):
    assume(_not_all_collinear(pts))
    config = build_configuration(pts)
    inc = spanned_lines(config)
    assert sum(comb(len(idx), 2) for idx in inc.lines.values()) == comb(len(pts), 2)


@given(point_lists)
def test_simple_line_always_exists(pts):
    """Every valid configuration spans a line with exactly two points."""
    assume(_not_all_collinear(pts))
    config = build_configuration(pts)
    assert len(simple_lines(config)) >= 1


@given(point_lists, st.integers(2, 6))
def test_boundedness_monotone(pts, ell):
    assume(_not_all_collinear(pts))
    config = build_configuration(pts)
    if is_ell_bounded(config, ell):
        assert is_ell_bounded(config, ell + 1)


@given(point_lists)
def test_third_point_symmetric(pts):
    assume(_not_all_collinear(pts))
    config = build_configuration(pts)
    if spanned_lines(config).max_line_size > 3:
        return
    n = len(config.points)
    for i, j in combinations(range(n), 2):
        assert third_point(config, i, j) == third_point(config, j, i)


# Differential test of the integer kernel against the rational definitions.


def _literal_rejection(pts):
    """The message a configuration must be rejected with, or None."""
    if len(pts) < 3:
        return f"too few points: need at least 3, got {len(pts)}"
    for i, p in enumerate(pts):
        if p in pts[:i]:
            return f"duplicate point at indices ({pts.index(p)},{i})"
    if all(collinear(pts[0], pts[1], p) for p in pts[2:]):
        return "contained in a line"
    return None


def _literal_incidence(pts):
    """(lines, pair_key) from line_through on every pair, as the kernel must build them."""
    pair_key = {(i, j): line_through(pts[i], pts[j]) for i, j in combinations(range(len(pts)), 2)}
    members = {}
    for pair, key in pair_key.items():
        members.setdefault(key, set()).update(pair)
    return {key: tuple(sorted(members[key])) for key in sorted(members)}, pair_key


huge = st.integers(-(10**30), 10**30)
rationals = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.builds(Fraction, st.integers(-200, 200), st.integers(1, 12)),
    st.builds(Fraction, huge, st.integers(1, 10**30)),
)
rational_points = st.tuples(rationals, rationals)


@st.composite
def rational_point_lists(draw):
    """Mixed-denominator points with collinear runs, a near-parallel pair of
    segments and sometimes a duplicate written unreduced ("2/4" for 1/2)."""
    pts = draw(st.lists(rational_points, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        # a run through a point already drawn: with nothing else, the set is collinear
        (px, py), (dx, dy) = draw(st.sampled_from(pts)), draw(rational_points)
        pts += [(px + t * dx, py + t * dy) for t in draw(st.lists(rationals, min_size=2, max_size=4))]
    if draw(st.booleans()):
        # segment ab and its translate by o, one end nudged by 0 or +-1/d, d <= 10^30
        (ax, ay), (bx, by), (ox, oy) = draw(rational_points), draw(rational_points), draw(rational_points)
        nudge = Fraction(draw(st.integers(-1, 1)), draw(st.integers(1, 10**30)))
        pts += [(ax, ay), (bx, by), (ax + ox, ay + oy), (bx + ox + nudge, by + oy)]
    if draw(st.integers(0, 3)) == 0:
        x, y = draw(st.sampled_from(pts))
        k = draw(st.integers(2, 10**6))
        pts.append((f"{x.numerator * k}/{x.denominator * k}", f"{y.numerator * k}/{y.denominator * k}"))
    return [Point(*p) for p in draw(st.permutations(pts))]


@given(rational_point_lists())
def test_kernel_matches_rational_definition(pts):
    expected = _literal_rejection(pts)
    if expected is not None:
        with pytest.raises(ConfigurationError) as exc:
            build_configuration(pts)
        assert str(exc.value) == expected
        return
    inc = spanned_lines(build_configuration(pts))
    lines, pair_key = _literal_incidence(pts)
    assert list(inc.lines.items()) == list(lines.items())
    assert list(inc._pair_key.items()) == list(pair_key.items())
    assert inc.max_line_size == max(len(idx) for idx in lines.values())


def test_kernel_rejects_unreduced_duplicate():
    with pytest.raises(ConfigurationError, match=r"^duplicate point at indices \(0,3\)$"):
        build_configuration([("1/2", "-1/3"), (1, 1), (0, 5), ("2/4", "-2/6")])


def test_kernel_rejects_collinear_rationals():
    # y = x/3 + 1/7 through points with denominators 5, 7, 35 and 10^30
    pts = [(x, x / 3 + Fraction(1, 7)) for x in (Fraction(1, 5), Fraction(2, 7), Fraction(-3, 35), Fraction(1, 10**30))]
    with pytest.raises(ConfigurationError, match="^contained in a line$"):
        build_configuration(pts)


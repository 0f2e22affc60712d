import pytest

from simplewedge import (
    OrbitKind,
    base_line,
    build_configuration,
    closed_orbit_config,
    collinear,
    decompose,
    maximal_orbit,
    orbit_length,
    orbit_trace,
    orbits_disjoint,
    simple_lines,
    spanned_lines,
    verify_orbit,
)


def test_base_line_requires_simple(six):
    base = base_line(six, 0, 1)
    assert (base.a, base.b) == (0, 1)
    with pytest.raises(ValueError, match="not simple"):
        base_line(six, 0, 2)  # the line through a and x1 carries x3 too
    with pytest.raises(ValueError):
        base_line(six, 1, 1)


def test_verify_orbit_full_cycle(six):
    base = base_line(six, 0, 1)
    # y on the line through (b, x1); x2 through (a, y); x3 through (b, x2);
    # x1 through (a, x3) — the walk returns to its start
    assert verify_orbit(six, base, [2, 5, 3, 4, 2])


def test_verify_orbit_singleton(six):
    base = base_line(six, 0, 1)
    assert verify_orbit(six, base, [2])


def test_verify_orbit_rejects_wrong_pencil(six):
    base = base_line(six, 0, 1)
    # x2 is not on the line through b and x1
    assert not verify_orbit(six, base, [2, 3])


def test_verify_orbit_rejects_base_points_and_interior_repeats(six):
    base = base_line(six, 0, 1)
    assert not verify_orbit(six, base, [0])
    assert not verify_orbit(six, base, [2, 5, 2, 5])
    assert not verify_orbit(six, base, [])


def test_maximal_orbit_closed_cycle(six):
    base = base_line(six, 0, 1)
    orbit = maximal_orbit(six, base, 2)
    assert orbit.seq == (2, 5, 3, 4, 2)
    assert orbit.kind is OrbitKind.CLOSED
    assert orbit_length(orbit) == 4


def test_maximal_orbit_rotated_start(six):
    base = base_line(six, 0, 1)
    first = maximal_orbit(six, base, 2)
    second = maximal_orbit(six, base, 3)
    assert second.seq == (3, 4, 2, 5, 3)
    assert first.support == second.support
    assert orbit_length(first) == orbit_length(second)


def test_maximal_orbit_open(five):
    base = base_line(five, 0, 1)
    orbit = maximal_orbit(five, base, 2)
    assert orbit.seq == (2,)
    assert orbit.kind is OrbitKind.OPEN
    assert orbit_length(orbit) == 1


def test_maximal_orbit_start_validation(six):
    base = base_line(six, 0, 1)
    with pytest.raises(ValueError):
        maximal_orbit(six, base, 0)
    with pytest.raises(ValueError):
        maximal_orbit(six, base, 17)


def test_orbit_length_cases(six, five):
    closed = maximal_orbit(six, base_line(six, 0, 1), 2)
    opened = maximal_orbit(five, base_line(five, 0, 1), 2)
    assert orbit_length(closed) == 4
    assert orbit_length(opened) == 1


def test_orbits_disjoint(six, five):
    base = base_line(six, 0, 1)
    cycle = maximal_orbit(six, base, 2)
    assert not orbits_disjoint(cycle, cycle)
    base5 = base_line(five, 0, 1)
    a = maximal_orbit(five, base5, 2)
    b = maximal_orbit(five, base5, 3)
    assert orbits_disjoint(a, b)
    assert not orbits_disjoint(a, a)


def test_decompose_six(six):
    decomposition = decompose(six, base_line(six, 0, 1))
    assert [o.seq for o in decomposition.closed_orbits] == [(2, 5, 3, 4, 2)]
    assert decomposition.open_orbit is None


def test_decompose_five(five):
    decomposition = decompose(five, base_line(five, 0, 1))
    assert decomposition.closed_orbits == ()
    assert decomposition.open_orbit.seq == (2,)


def test_decompose_cycle_plus_free_point():
    """A closed-orbit configuration with one extra point off every spanned
    line decomposes into exactly the cycle and a singleton open orbit."""
    core = closed_orbit_config(2)
    extra = (5, 7)
    inc = spanned_lines(core)
    from simplewedge import Point, on_line

    assert all(not on_line(Point(*extra), key) for key in inc.lines)
    config = build_configuration(list(core.points) + [extra])
    decomposition = decompose(config, base_line(config, 0, 1))
    assert len(decomposition.closed_orbits) == 1
    assert orbit_length(decomposition.closed_orbits[0]) == 4
    assert decomposition.open_orbit.seq == (6,)


def test_even_length_on_closed_orbit_family():
    for k in range(2, 9):
        config = closed_orbit_config(k)
        decomposition = decompose(config, base_line(config, 0, 1))
        for orbit in decomposition.closed_orbits:
            assert orbit_length(orbit) % 2 == 0


def test_even_length_and_separation_on_corpora(small_range_corpus, multi_cycle_corpus):
    """Closed orbits have even length, and the orbits found above one base
    line are pairwise disjoint, on every corpus configuration. The merged
    cycle corpus guarantees closed orbits genuinely occur."""
    closed_seen = 0
    for config in small_range_corpus + multi_cycle_corpus:
        for line in simple_lines(config):
            base = base_line(config, *line.endpoints)
            decomposition = decompose(config, base)
            supports = []
            for orbit in decomposition.closed_orbits:
                assert orbit_length(orbit) % 2 == 0
                assert orbit.seq[0] == orbit.seq[-1] and len(orbit.seq) > 3
                supports.append(orbit.support)
                closed_seen += 1
            if decomposition.open_orbit is not None:
                supports.append(decomposition.open_orbit.support)
            union = set()
            for support in supports:
                assert union.isdisjoint(support)
                union |= support
            assert base.a not in union and base.b not in union
    assert closed_seen > 0


def test_multi_cycle_decompositions(multi_cycle_corpus):
    """Every merged-cycle configuration decomposes into at least two closed
    orbits from its base line, all disjoint."""
    for config in multi_cycle_corpus:
        decomposition = decompose(config, base_line(config, 0, 1))
        assert len(decomposition.closed_orbits) >= 2
        for first in decomposition.closed_orbits:
            for second in decomposition.closed_orbits:
                if first is not second:
                    assert orbits_disjoint(first, second)


def test_produced_orbits_satisfy_conditions_and_parity(bounded_corpus):
    sample = bounded_corpus[:40]
    for config in sample:
        for line in simple_lines(config)[:6]:
            base = base_line(config, *line.endpoints)
            decomposition = decompose(config, base)
            orbits = list(decomposition.closed_orbits)
            if decomposition.open_orbit is not None:
                orbits.append(decomposition.open_orbit)
            pts = config.points
            for orbit in orbits:
                assert verify_orbit(config, base, orbit.seq)
                for pos in range(2, len(orbit.seq) + 1):
                    pivot = pts[base.b] if pos % 2 == 0 else pts[base.a]
                    assert collinear(pivot, pts[orbit.seq[pos - 2]], pts[orbit.seq[pos - 1]])


def test_open_orbits_are_definitionally_maximal(five, six, small_range_corpus):
    """No point may extend a maximal open orbit: by the literal orbit
    conditions, appending any k that is neither an interior entry nor the
    last entry again (collinear() holds for a repeated point, so those two
    would pass trivially) gives a sequence that is not an orbit."""
    checked = 0
    for config in (five, six, *small_range_corpus[:40]):
        for line in simple_lines(config):
            base = base_line(config, *line.endpoints)
            orbit = decompose(config, base).open_orbit
            if orbit is None:
                continue
            seq = orbit.seq
            for k in range(len(config.points)):
                if k in seq[1:] or k == seq[-1]:
                    continue
                assert not verify_orbit(config, base, (*seq, k))
            checked += len(seq) > 1
    assert checked > 0  # some open orbit longer than one point was tested


def test_orbit_trace_rendering(six):
    base = base_line(six, 0, 1)
    orbit = maximal_orbit(six, base, 2)
    trace = orbit_trace(six, orbit)
    assert trace == [
        "pos 1: x_1 = 2 (-1, 2) start",
        "pos 2: x_2 = 5 (0, 4/3) via pivot b",
        "pos 3: x_3 = 3 (1, 2) via pivot a",
        "pos 4: x_4 = 4 (0, 4) via pivot b",
        "pos 5: x_5 = 2 (-1, 2) via pivot a",
        "CLOSED length 4",
    ]


def test_orbit_trace_open(five):
    base = base_line(five, 0, 1)
    trace = orbit_trace(five, maximal_orbit(five, base, 2))
    assert trace == ["pos 1: x_1 = 2 (0, 1) start", "OPEN maximal length 1"]

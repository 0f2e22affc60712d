import pytest

from simplewedge import (
    LineKey,
    NotThreeBoundedError,
    Point,
    WedgeCertificate,
    analyze,
    base_line,
    brute_force_wedges,
    build_configuration,
    closed_orbit_config,
    collinear,
    decompose,
    find_wedge_from_line,
    g_extended,
    maximal_orbit,
    on_line,
    sample_configuration,
    simple_lines,
    spanned_lines,
    trial_rng,
    validate_certificate,
    verify_orbit,
    wedge_coverage,
    wedge_from_open_orbit,
)


def test_wedge_from_open_orbit_odd_length(five):
    base = base_line(five, 0, 1)
    orbit = maximal_orbit(five, base, 2)
    cert = wedge_from_open_orbit(five, base, orbit)
    # odd walk length blocks in the pencil of b, so b is the apex
    assert cert.apex == 1
    assert {cert.arm1, cert.arm2} == {0, 2}
    validate_certificate(five, cert)


def test_wedge_from_open_orbit_other_start(five):
    base = base_line(five, 0, 1)
    cert = wedge_from_open_orbit(five, base, maximal_orbit(five, base, 3))
    assert cert.apex == 1
    assert {cert.arm1, cert.arm2} == {0, 3}
    validate_certificate(five, cert)


def test_wedge_from_open_orbit_free_point():
    core = closed_orbit_config(2)
    extra = Point(5, 7)
    assert all(not on_line(extra, key) for key in spanned_lines(core).lines)
    config = build_configuration(list(core.points) + [extra])
    base = base_line(config, 0, 1)
    orbit = decompose(config, base).open_orbit
    assert orbit.seq == (6,)
    cert = wedge_from_open_orbit(config, base, orbit)
    assert cert.apex == 1
    assert {cert.arm1, cert.arm2} == {0, 6}
    validate_certificate(config, cert)


def test_wedge_from_open_orbit_rejects_closed(six):
    base = base_line(six, 0, 1)
    closed = maximal_orbit(six, base, 2)
    with pytest.raises(ValueError):
        wedge_from_open_orbit(six, base, closed)


def test_find_wedge_six_absent(six):
    assert find_wedge_from_line(six, base_line(six, 0, 1)) is None


def test_find_wedge_five_present(five):
    cert = find_wedge_from_line(five, base_line(five, 0, 1))
    assert cert is not None and cert.apex == 1
    validate_certificate(five, cert)


def test_find_wedge_closed_orbit_family_absent():
    config = closed_orbit_config(3)
    assert len(config.points) == 8
    assert find_wedge_from_line(config, base_line(config, 0, 1)) is None


def test_find_wedge_requires_three_bounded(nine):
    with pytest.raises(NotThreeBoundedError):
        find_wedge_from_line(nine, base_line(nine, 0, 1))


def test_brute_force_triangle(triangle):
    certs = brute_force_wedges(triangle)
    assert [(c.apex, c.arm1, c.arm2) for c in certs] == [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    for cert in certs:
        validate_certificate(triangle, cert)


def test_brute_force_six_empty(six):
    assert brute_force_wedges(six) == ()


def test_brute_force_nine(nine):
    certs = brute_force_wedges(nine)
    assert certs
    base_key = LineKey(0, 1, 0)
    for cert in certs:
        assert cert.apex not in (0, 1)
        assert base_key not in (cert.key1, cert.key2)
        validate_certificate(nine, cert)


def test_brute_force_sorted_and_deterministic(nine):
    certs = brute_force_wedges(nine)
    assert list(certs) == sorted(certs, key=lambda c: (c.apex, c.arm1, c.arm2))
    rebuilt = build_configuration(nine.points)
    assert brute_force_wedges(rebuilt) == certs


def test_coverage_six_all_uncovered(six):
    report = wedge_coverage(six)
    assert len(report.entries) == 3
    assert all(not entry.covered and entry.certificate is None for entry in report.entries)


def test_coverage_nine_base_uncovered(nine):
    report = wedge_coverage(nine)
    by_endpoints = {entry.line.endpoints: entry for entry in report.entries}
    assert not by_endpoints[(0, 1)].covered
    # every other simple line of this set does belong to a wedge
    assert all(entry.covered for ep, entry in by_endpoints.items() if ep != (0, 1))


def test_coverage_certificate_uses_the_line(five):
    report = wedge_coverage(five)
    for entry in report.entries:
        assert entry.covered == (entry.certificate is not None)
        if entry.certificate is not None:
            assert entry.line.key in (entry.certificate.key1, entry.certificate.key2)
            i, j = entry.line.endpoints
            cert = entry.certificate
            assert cert.apex in (i, j)
            other = j if cert.apex == i else i
            assert other in (cert.arm1, cert.arm2)


def test_coverage_witness_is_the_first_certificate_using_the_line(six, nine):
    """The one-pass coverage picks the same witness as the literal definition:
    the first oracle certificate, in (apex, arm1, arm2) order, using the line."""
    configs = [six, nine, closed_orbit_config(4), g_extended(3)]
    configs += [sample_configuration(n, r, trial_rng(3, n))[0] for n in (5, 8, 11) for r in (3, 50)]
    for config in configs:
        certs = brute_force_wedges(config)
        report = wedge_coverage(config)
        assert [entry.line for entry in report.entries] == list(simple_lines(config))
        for entry in report.entries:
            line = entry.line
            assert entry.certificate == next(
                (c for c in certs if line.key in (c.key1, c.key2)), None
            )
        assert analyze(config).coverage == report


def test_coverage_odd_bounded_all_covered(five):
    assert all(entry.covered for entry in wedge_coverage(five).entries)


def test_oracle_agreement(bounded_corpus):
    """Per simple line of each 3-bounded configuration, the orbit search finds
    a wedge iff the brute-force oracle covers that line."""
    for config in bounded_corpus[:60]:
        covered = {
            entry.line.endpoints: entry.covered for entry in wedge_coverage(config).entries
        }
        for line in simple_lines(config):
            base = base_line(config, *line.endpoints)
            cert = find_wedge_from_line(config, base)
            assert (cert is not None) == covered[line.endpoints]
            if cert is not None:
                assert base.key in (cert.key1, cert.key2)
                validate_certificate(config, cert)


def test_every_certificate_implies_singleton_open_orbit(nine, five):
    """Whenever the oracle reports a wedge with lines through (apex, arm),
    the single-step walk from the other arm is a maximal open orbit of the
    (arm, apex) base line — checked definitionally, so it applies to
    non-3-bounded configurations too."""
    for config in (nine, five):
        n = len(config.points)
        pts = config.points
        for cert in brute_force_wedges(config):
            for far, near in ((cert.arm1, cert.arm2), (cert.arm2, cert.arm1)):
                base = base_line(config, far, cert.apex)
                assert verify_orbit(config, base, [near])
                # no admissible continuation: a fresh point on the line
                # through b = apex and the walk's last point
                extensions = [
                    y
                    for y in range(n)
                    if y not in (far, cert.apex, near)
                    and collinear(pts[cert.apex], pts[near], pts[y])
                ]
                assert extensions == []


def test_validate_certificate_rejects_corrupt(five):
    good = find_wedge_from_line(five, base_line(five, 0, 1))
    bad = WedgeCertificate(good.apex, good.arm1, good.arm2, good.key2, good.key1)
    with pytest.raises(ValueError):
        validate_certificate(five, bad)
    with pytest.raises(ValueError):
        validate_certificate(five, WedgeCertificate(0, 0, 2, good.key1, good.key2))
    # a line through three points is not simple, so it cannot be a wedge line
    with pytest.raises(ValueError):
        validate_certificate(
            five,
            WedgeCertificate(
                2,
                3,
                0,
                LineKey(1, 0, 0),
                good.key2,
            ),
        )

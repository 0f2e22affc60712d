"""Simple-wedge search: the orbit route and the brute-force oracle.

A simple wedge is a point (the apex) from which two distinct simple lines of
the configuration emanate. The orbit route turns a maximal open orbit above a
simple base line into such a wedge; the brute-force oracle finds every wedge
directly from the incidence structure and works on any configuration, bounded
or not. The two routes are kept independent so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import LineKey, line_through
from .incidence import (
    Configuration,
    InternalInvariantError,
    NotThreeBoundedError,
    SimpleLine,
    simple_lines,
    spanned_lines,
)
from .orbits import BaseLine, Orbit, OrbitKind, decompose


@dataclass(frozen=True)
class WedgeCertificate:
    """Machine-checkable wedge witness: apex, the two arm points, and the two
    simple line keys (key1 through arm1, key2 through arm2; arm1 < arm2)."""

    apex: int
    arm1: int
    arm2: int
    key1: LineKey
    key2: LineKey


def validate_certificate(config: Configuration, cert: WedgeCertificate) -> None:
    """Re-check a certificate against the configuration; raise ValueError on
    any discrepancy."""
    ids = (cert.apex, cert.arm1, cert.arm2)
    if len(set(ids)) != 3:
        raise ValueError(f"certificate points not pairwise distinct: {ids}")
    if not all(0 <= i < len(config.points) for i in ids):
        raise ValueError(f"certificate indices out of range: {ids}")
    pts = config.points
    if cert.key1 != line_through(pts[cert.apex], pts[cert.arm1]):
        raise ValueError("key1 is not the line through apex and arm1")
    if cert.key2 != line_through(pts[cert.apex], pts[cert.arm2]):
        raise ValueError("key2 is not the line through apex and arm2")
    if cert.key1 == cert.key2:
        raise ValueError("the two wedge lines coincide")
    inc = spanned_lines(config)
    for key, i, j in ((cert.key1, cert.apex, cert.arm1), (cert.key2, cert.apex, cert.arm2)):
        if inc.lines[key] != tuple(sorted((i, j))):
            raise ValueError(f"wedge line {key} is not simple")


def wedge_from_open_orbit(config: Configuration, base: BaseLine, orbit: Orbit) -> WedgeCertificate:
    """Convert a maximal open orbit into a wedge certificate.

    A walk of odd length was blocked in the pencil of b, so the line through b
    and the last point is simple and b is the apex; even length blocks in the
    pencil of a symmetrically. The implied line is re-verified against the
    incidence structure: if it is not simple, the guarantee this function
    rests on is broken, which is an internal error.
    """
    if orbit.kind is not OrbitKind.OPEN:
        raise ValueError("need a maximal open orbit")
    if orbit.base != base:
        raise ValueError("orbit does not belong to this base line")
    last = orbit.seq[-1]
    if len(orbit.seq) % 2 == 1:
        apex, far = base.b, base.a
    else:
        apex, far = base.a, base.b
    inc = spanned_lines(config)
    blocked_key = inc.line_of(apex, last)
    if len(inc.lines[blocked_key]) != 2:
        raise InternalInvariantError(
            f"characterization violated: line {blocked_key} through points "
            f"{apex} and {last} should be simple but is not"
        )
    arm1, arm2 = sorted((far, last))
    return WedgeCertificate(apex, arm1, arm2, inc.line_of(apex, arm1), inc.line_of(apex, arm2))


def find_wedge_from_line(config: Configuration, base: BaseLine) -> Optional[WedgeCertificate]:
    """Search for a wedge using `base` as one of its lines, via orbits.

    Requires a 3-bounded configuration. Returns None when every point off the
    base line falls into closed orbits — which cannot happen when the point
    count is odd (closed orbits have even length and are disjoint), so that
    case raises.
    """
    if spanned_lines(config).max_line_size > 3:
        raise NotThreeBoundedError("orbit wedge search requires a 3-bounded configuration")
    decomposition = decompose(config, base)
    if decomposition.open_orbit is not None:
        return wedge_from_open_orbit(config, base, decomposition.open_orbit)
    if len(config.points) % 2 == 1:
        raise InternalInvariantError(
            f"no open orbit for base ({base.a}, {base.b}) in an odd-size 3-bounded "
            "configuration; the closed orbits cannot cover an odd count of points"
        )
    return None


def brute_force_wedges(config: Configuration) -> Tuple[WedgeCertificate, ...]:
    """Every simple wedge, straight from the definition.

    For each point, collect the simple lines through it and emit one
    certificate per unordered pair. Works on any valid configuration.
    Output is sorted by (apex, arm1, arm2).
    """
    inc = spanned_lines(config)
    through: Dict[int, List[Tuple[int, LineKey]]] = {}
    for key, idx in inc.lines.items():
        if len(idx) == 2:
            i, j = idx
            through.setdefault(i, []).append((j, key))
            through.setdefault(j, []).append((i, key))
    certs: List[WedgeCertificate] = []
    for apex in sorted(through):
        arms = sorted(through[apex])
        for (u, key_u), (v, key_v) in combinations(arms, 2):
            certs.append(WedgeCertificate(apex, u, v, key_u, key_v))
    return tuple(certs)


@dataclass(frozen=True)
class CoverageEntry:
    line: SimpleLine
    certificate: Optional[WedgeCertificate]

    @property
    def covered(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class CoverageReport:
    """Per-simple-line wedge coverage: whether some wedge uses the line as one
    of its two simple lines, with a witness when it does."""

    entries: Tuple[CoverageEntry, ...]


def coverage_from(lines: Sequence[SimpleLine], certs: Sequence[WedgeCertificate]) -> CoverageReport:
    """Coverage of `lines` read off the wedge list `certs` in one pass: each
    line's witness is the first certificate that uses it as key1 or key2 (in
    the oracle's (apex, arm1, arm2) order), or None when none does."""
    witness: Dict[LineKey, WedgeCertificate] = {}
    for cert in certs:
        witness.setdefault(cert.key1, cert)
        witness.setdefault(cert.key2, cert)
    return CoverageReport(tuple(CoverageEntry(line, witness.get(line.key)) for line in lines))


def wedge_coverage(config: Configuration) -> CoverageReport:
    """Coverage of every simple line, read off the brute-force oracle's wedge
    list once, so it applies to non-3-bounded configurations too."""
    return coverage_from(simple_lines(config), brute_force_wedges(config))

"""Point configurations and the lines they span.

A configuration is an ordered tuple of at least three pairwise-distinct
points, not all on one line. Everything downstream addresses points by index;
coordinates are resolved only here, when the incidence structure (the map
from spanned lines to incident point indices) is built. The structure is
computed once per configuration and cached.

Points come in as rationals, but decisions run on integers: a configuration
clears its denominators once, scaling every point by the lcm of its
coordinate denominators, which preserves equality and incidence. Validation
and line enumeration work on those integer points, and only the distinct
lines are mapped back to the `LineKey` of the unscaled rational line. It is
all exact; no float is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .geometry import LineKey, Point, normalize_line


class ConfigurationError(ValueError):
    """The given points do not form a valid configuration."""


class NotThreeBoundedError(ValueError):
    """An operation needed a line with at most 3 incident points but met a larger one."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed property failed to hold; indicates a bug."""


class Configuration:
    """An ordered, validated point set. Input order is preserved so callers
    can rely on stable indices."""

    __slots__ = ("points", "_scale", "_ints", "_incidence")

    def __init__(self, points: Sequence[Point]):
        pts = tuple(points)
        if len(pts) < 3:
            raise ConfigurationError(f"too few points: need at least 3, got {len(pts)}")
        # clear denominators once: point i becomes ints[i] = scale * pts[i]
        scale = math.lcm(*(c.denominator for p in pts for c in (p.x, p.y)))
        ints = [
            (p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
            for p in pts
        ]
        seen: Dict[Tuple[int, int], int] = {}
        for i, p in enumerate(ints):
            if p in seen:
                raise ConfigurationError(f"duplicate point at indices ({seen[p]},{i})")
            seen[p] = i
        (x0, y0), (x1, y1) = ints[0], ints[1]
        dx, dy = x1 - x0, y1 - y0
        if all(dx * (y - y0) == dy * (x - x0) for x, y in ints[2:]):
            raise ConfigurationError("contained in a line")
        self.points = pts
        self._scale = scale
        self._ints = ints
        self._incidence: Optional[IncidenceStructure] = None

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Configuration) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Configuration({len(self.points)} points)"


def build_configuration(points: Iterable) -> Configuration:
    """Validate a point sequence into a Configuration.

    Items may be Point instances or (x, y) pairs of ints / Fractions /
    rational strings.
    """
    coerced = [p if isinstance(p, Point) else Point(*p) for p in points]
    return Configuration(coerced)


@dataclass(frozen=True)
class SimpleLine:
    """A spanned line carrying exactly two configuration points."""

    key: LineKey
    endpoints: Tuple[int, int]


class IncidenceStructure:
    """Map from each spanned line to the sorted indices of its incident points.

    Iteration order over `lines` is sorted by LineKey, so every consumer is
    deterministic. A pair-to-key index is kept so the line through two given
    points is a dictionary lookup.
    """

    __slots__ = ("lines", "_pair_key", "max_line_size")

    def __init__(self, lines: Dict[LineKey, Tuple[int, ...]], pair_key: Dict[Tuple[int, int], LineKey]):
        self.lines = lines
        self._pair_key = pair_key
        self.max_line_size = max(len(v) for v in lines.values())

    def line_of(self, i: int, j: int) -> LineKey:
        """The key of the spanned line through points i and j."""
        if i == j:
            raise ValueError("distinct indices required")
        return self._pair_key[(i, j) if i < j else (j, i)]

    def size_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for idx in self.lines.values():
            hist[len(idx)] = hist.get(len(idx), 0) + 1
        return dict(sorted(hist.items()))


def spanned_lines(config: Configuration) -> IncidenceStructure:
    """Enumerate every line spanned by the configuration.

    Single O(n^2) pass over index pairs of the integer points, grouping them
    by the normalized integer triple of their line; n is desk-scale
    throughout, so exactness and simplicity beat asymptotic cleverness here.
    Only the distinct lines are mapped back to the key of the rational line.
    """
    if config._incidence is None:
        # members in ascending order: the pairs (m0, m1), (m0, m2), ... of a
        # line come before any other pair of it, so only those append
        acc: Dict[Tuple[int, int, int], List[int]] = {}
        pairs: List[Tuple[int, int]] = []
        triples: List[Tuple[int, int, int]] = []
        ints = config._ints
        for i, (xi, yi) in enumerate(ints):
            for j in range(i + 1, len(ints)):
                xj, yj = ints[j]
                triple = normalize_line(yj - yi, xi - xj, xj * yi - xi * yj)
                pairs.append((i, j))
                triples.append(triple)
                members = acc.get(triple)
                if members is None:
                    acc[triple] = [i, j]
                elif members[0] == i:
                    members.append(j)
        # a*X + b*Y + c = 0 on X = scale*x, Y = scale*y is (a*scale, b*scale, c) on x, y
        scale = config._scale
        canon = sorted((normalize_line(t[0] * scale, t[1] * scale, t[2]), t) for t in acc)
        key_of = {t: LineKey._from_normalized(*k) for k, t in canon}
        lines = {key: tuple(acc[t]) for t, key in key_of.items()}
        pair_key = dict(zip(pairs, map(key_of.__getitem__, triples)))
        config._incidence = IncidenceStructure(lines, pair_key)
    return config._incidence


def simple_lines(config: Configuration) -> Tuple[SimpleLine, ...]:
    """All spanned lines with exactly two incident points, sorted by key.

    Every valid configuration has at least one; an empty result would mean
    the exact predicates are broken, so it raises instead of returning.
    """
    inc = spanned_lines(config)
    found = tuple(
        SimpleLine(key, (idx[0], idx[1]))
        for key, idx in inc.lines.items()
        if len(idx) == 2
    )
    if not found:
        raise InternalInvariantError(
            "no line with exactly two points found; every non-collinear finite "
            "point set spans one, so the incidence computation is broken"
        )
    return found


def is_ell_bounded(config: Configuration, ell: int) -> bool:
    """True iff no spanned line carries more than `ell` configuration points."""
    if ell < 2:
        raise ValueError(f"ell must be at least 2, got {ell}")
    return spanned_lines(config).max_line_size <= ell


def third_point(config: Configuration, i: int, j: int) -> Optional[int]:
    """The unique index besides i and j on their spanned line, if any.

    Returns None when the line is simple. Lines carrying four or more points
    are out of contract: the continuation would be ambiguous.
    """
    inc = spanned_lines(config)
    key = inc.line_of(i, j)
    idx = inc.lines[key]
    if len(idx) == 2:
        return None
    if len(idx) == 3:
        return next(k for k in idx if k != i and k != j)
    raise NotThreeBoundedError(
        f"not 3-bounded on this line: {key} carries {len(idx)} points"
    )

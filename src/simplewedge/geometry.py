"""Exact rational plane primitives: points, canonical line keys, predicates.

Coordinates come in and go out as arbitrary-precision rationals
(`fractions.Fraction`). Line keys are integer triples, and `normalize_line`
is the one place where an integer triple is brought to canonical form; the
incidence kernel shares it after clearing a configuration's denominators.
`line_through` and `collinear` are the literal rational definitions. Every
predicate is decided exactly. Floating point never enters a decision path: a
single misclassified collinearity would corrupt everything built on top of
the incidence structure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Rational:
    """Parse a rational literal: optional '-', an integer, optionally '/' and
    a positive integer — e.g. "-2", "4/3", "-2/3"."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"malformed rational {text!r}: zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Rational) -> str:
    """Canonical text for a rational; inverse of parse_rational."""
    return str(value)


def _coerce(value: RationalLike) -> Rational:
    # floats are rejected outright: exactness is the whole point
    if isinstance(value, float):
        raise TypeError("float coordinates are not allowed; use Fraction, int or a rational string")
    return value if isinstance(value, Fraction) else Fraction(value)


def normalize_line(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """Divide an integer line triple by its gcd and fix the sign so the first
    nonzero of (a, b) is positive. (a, b) must not be (0, 0)."""
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        return -a, -b, -c
    return a, b, c


@dataclass(frozen=True)
class Point:
    """A point with exact rational coordinates. Immutable and hashable."""

    x: Rational
    y: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _coerce(self.x))
        object.__setattr__(self, "y", _coerce(self.y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


@dataclass(frozen=True, order=True)
class LineKey:
    """Canonical integer homogeneous coordinates of the line a·x + b·y + c = 0.

    Any rational multiple of a coefficient triple normalizes to the same key:
    denominators are cleared, the gcd is divided out, and the sign is fixed so
    the first nonzero of (a, b) is positive. Key equality therefore decides
    line identity, which is what makes LineKey usable as a mapping key.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        fa, fb, fc = _coerce(self.a), _coerce(self.b), _coerce(self.c)
        if fa == 0 and fb == 0:
            raise ValueError("degenerate line: (a, b) must not be (0, 0)")
        scale = math.lcm(fa.denominator, fb.denominator, fc.denominator)
        a, b, c = normalize_line(int(fa * scale), int(fb * scale), int(fc * scale))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def _from_normalized(cls, a: int, b: int, c: int) -> LineKey:
        """The key of a triple `normalize_line` returned, without re-coercing it."""
        key = object.__new__(cls)
        object.__setattr__(key, "a", a)
        object.__setattr__(key, "b", b)
        object.__setattr__(key, "c", c)
        return key

    def __repr__(self) -> str:
        return f"LineKey({self.a}, {self.b}, {self.c})"


def line_through(p: Point, q: Point) -> LineKey:
    """The canonical key of the unique line through two distinct points."""
    if p == q:
        raise ValueError(f"degenerate pair: identical points {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    return LineKey(a, b, c)


def collinear(p: Point, q: Point, r: Point) -> bool:
    """Exact collinearity test; invariant under permutations, true for duplicates."""
    return (q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x)


def on_line(p: Point, line: LineKey) -> bool:
    """True iff p satisfies the line equation exactly."""
    return line.a * p.x + line.b * p.y + line.c == 0


def intersect(line1: LineKey, line2: LineKey) -> Optional[Point]:
    """The common point of two distinct lines, or None when they are parallel.

    Asking for the intersection of a key with itself is a logic error in the
    caller and raises instead of answering "infinitely many".
    """
    if line1 == line2:
        raise ValueError("coincident lines")
    det = line1.a * line2.b - line2.a * line1.b
    if det == 0:
        return None
    x = Fraction(line1.b * line2.c - line2.b * line1.c, det)
    y = Fraction(line2.a * line1.c - line1.a * line2.c, det)
    return Point(x, y)

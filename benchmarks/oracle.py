"""A short reference for the benchmark's correctness checks.

It follows the definitions literally and shares no code with simplewedge:
points are scaled to integers by the lcm of their denominators (which keeps
every incidence), three points are collinear when their integer cross product
is zero, a line through two points is simple when no third point lies on it,
and a point is a wedge apex when it lies on at least two simple lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Sequence, Tuple


@dataclass(frozen=True)
class Verdict:
    n: int
    collinear: bool
    max_line_size: int
    simple_lines: FrozenSet[Tuple[int, int]]
    wedges: int
    covered: Dict[Tuple[int, int], bool]

    @property
    def has_wedge(self) -> bool:
        return self.wedges > 0


def integer_points(points: Sequence[Tuple[Fraction, Fraction]]) -> Tuple[Tuple[int, int], ...]:
    scale = math.lcm(*(Fraction(c).denominator for p in points for c in p))
    return tuple((int(Fraction(x) * scale), int(Fraction(y) * scale)) for x, y in points)


def judge(points: Sequence[Tuple[Fraction, Fraction]]) -> Verdict:
    """Simple lines, wedge count and per-line coverage of a point sequence."""
    pts = integer_points(points)
    n = len(pts)

    def on(i: int, j: int, k: int) -> bool:
        (xi, yi), (xj, yj), (xk, yk) = pts[i], pts[j], pts[k]
        return (xj - xi) * (yk - yi) == (yj - yi) * (xk - xi)

    collinear = all(on(0, 1, k) for k in range(2, n))
    line_size = {
        (i, j): 2 + sum(1 for k in range(n) if k != i and k != j and on(i, j, k))
        for i in range(n)
        for j in range(i + 1, n)
    }
    simple = frozenset(pair for pair, size in line_size.items() if size == 2)
    degree = [0] * n
    for i, j in simple:
        degree[i] += 1
        degree[j] += 1
    wedges = sum(d * (d - 1) // 2 for d in degree)
    covered = {(i, j): degree[i] >= 2 or degree[j] >= 2 for i, j in simple}
    return Verdict(n, collinear, max(line_size.values()), simple, wedges, covered)

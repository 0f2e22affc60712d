"""Orbit walks above a simple base line.

Fix a simple line through base points a and b. An orbit is a sequence of
other configuration points in which each point at an even position lies on a
line through b and its predecessor, and each point at an odd position (from 3
on) lies on a line through a and its predecessor — the walk alternates between
the pencils of the two base points. On a 3-bounded configuration each step has
at most one continuation (the unique third point on the pivot line), so
maximal orbits are deterministic: the walk either closes back onto its first
point or gets stuck, and stuck means the blocking line is simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .geometry import LineKey, collinear
from .incidence import (
    Configuration,
    InternalInvariantError,
    spanned_lines,
    third_point,
)


class OrbitAnomalyError(InternalInvariantError):
    """A continuation point revisited the interior of the walk.

    On a 3-bounded configuration the only point a walk can ever revisit is its
    first one (which closes the orbit), so this firing means a bug.
    """


@dataclass(frozen=True)
class BaseLine:
    """A simple line given by its two point indices and canonical key."""

    a: int
    b: int
    key: LineKey


def base_line(config: Configuration, a: int, b: int) -> BaseLine:
    """Build the orbit base for points a and b; their line must be simple."""
    n = len(config.points)
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"point indices out of range: ({a}, {b})")
    if a == b:
        raise ValueError("base points must be distinct")
    inc = spanned_lines(config)
    key = inc.line_of(a, b)
    if len(inc.lines[key]) != 2:
        raise ValueError(f"line through points {a} and {b} is not simple")
    return BaseLine(a, b, key)


class OrbitKind(Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class Orbit:
    """A maximal orbit walk: open ones are stuck, closed ones store the first
    point again at the end, so their length reads off as len(seq) - 1."""

    base: BaseLine
    seq: Tuple[int, ...]
    kind: OrbitKind

    @property
    def support(self) -> frozenset:
        return frozenset(self.seq)


def verify_orbit(config: Configuration, base: BaseLine, seq: Sequence[int]) -> bool:
    """Check the defining orbit conditions literally.

    A sequence qualifies when (1) it avoids both base points, (2) all entries
    before the last are pairwise distinct, and (3) each entry from position 2
    on is collinear with its predecessor and the position's pivot — b at even
    positions, a at odd ones. Only the final entry may repeat an earlier one.
    """
    pts = config.points
    n = len(pts)
    if len(seq) == 0:
        return False
    if any(not (0 <= x < n) for x in seq):
        return False
    if any(x == base.a or x == base.b for x in seq):
        return False
    head = seq[:-1]
    if len(set(head)) != len(head):
        return False
    pa, pb = pts[base.a], pts[base.b]
    for pos in range(2, len(seq) + 1):
        pivot = pb if pos % 2 == 0 else pa
        if not collinear(pivot, pts[seq[pos - 2]], pts[seq[pos - 1]]):
            return False
    return True


def maximal_orbit(config: Configuration, base: BaseLine, start: int) -> Orbit:
    """Walk from `start` until the orbit closes or gets stuck.

    The pivot for position t+1 is b when t+1 is even, a otherwise. The unique
    third point on the line through the pivot and the last entry extends the
    walk if it is new and closes it if it equals the first entry; its absence
    means the walk is stuck (that pivot line is simple), so the open orbit is
    maximal. Any other repeat is impossible on 3-bounded input and raises
    OrbitAnomalyError. Each extension adds a fresh point, so the walk
    terminates within n steps; exceeding that bound is flagged as an internal
    error rather than looping.
    """
    n = len(config.points)
    if not 0 <= start < n:
        raise ValueError(f"start index out of range: {start}")
    if start == base.a or start == base.b:
        raise ValueError("start point must differ from both base points")
    seq: List[int] = [start]
    for _ in range(n + 1):
        pivot = base.b if (len(seq) + 1) % 2 == 0 else base.a
        k = third_point(config, pivot, seq[-1])
        if k is None:
            return Orbit(base, tuple(seq), OrbitKind.OPEN)
        if k == start:
            return Orbit(base, (*seq, start), OrbitKind.CLOSED)
        if k in seq:
            raise OrbitAnomalyError(
                f"orbit anomaly: continuation {k} repeats a non-initial entry of {tuple(seq)}"
            )
        seq.append(k)
    raise InternalInvariantError("orbit walk exceeded the point count without terminating")


def orbit_length(orbit: Orbit) -> int:
    """Number of distinct steps: the sequence length, minus one when closed
    (the repeated first point does not count twice)."""
    if orbit.kind is OrbitKind.CLOSED:
        return len(orbit.seq) - 1
    return len(orbit.seq)


def orbits_disjoint(x: Orbit, y: Orbit) -> bool:
    """True iff the two walks share no point index."""
    return x.support.isdisjoint(y.support)


@dataclass(frozen=True)
class OrbitDecomposition:
    closed_orbits: Tuple[Orbit, ...]
    open_orbit: Optional[Orbit]


def decompose(config: Configuration, base: BaseLine) -> OrbitDecomposition:
    """Partition points off the base line into maximal orbits.

    Repeatedly walks from the lowest-index point not yet covered. Closed
    orbits accumulate; the first open orbit stops the sweep (one is all a
    caller needs). The lowest-index policy makes reports reproducible.
    """
    used = {base.a, base.b}
    closed: List[Orbit] = []
    for start in range(len(config.points)):
        if start in used:
            continue
        orbit = maximal_orbit(config, base, start)
        if orbit.kind is OrbitKind.CLOSED:
            overlap = orbit.support & used
            if overlap:
                raise InternalInvariantError(
                    f"closed orbit {orbit.seq} touches already-covered points {sorted(overlap)}"
                )
            closed.append(orbit)
            used |= orbit.support
        else:
            return OrbitDecomposition(tuple(closed), orbit)
    return OrbitDecomposition(tuple(closed), None)


def orbit_trace(config: Configuration, orbit: Orbit) -> List[str]:
    """Human-readable walk trace: one line per position, then the terminal
    classification line."""
    lines = []
    for pos, idx in enumerate(orbit.seq, start=1):
        p = config.points[idx]
        where = f"({p.x}, {p.y})"
        if pos == 1:
            lines.append(f"pos 1: x_1 = {idx} {where} start")
        else:
            pivot = "b" if pos % 2 == 0 else "a"
            lines.append(f"pos {pos}: x_{pos} = {idx} {where} via pivot {pivot}")
    length = orbit_length(orbit)
    if orbit.kind is OrbitKind.CLOSED:
        lines.append(f"CLOSED length {length}")
    else:
        lines.append(f"OPEN maximal length {length}")
    return lines

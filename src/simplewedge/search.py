"""Conjecture search: does every odd-size non-collinear set span a wedge?

Two modes. Random mode samples n distinct integer points per trial from
[-range, range]^2, resampling a whole trial when the draw is collinear;
exhaustive mode scans every n-subset of a G x G lattice. Random mode detects
wedges with the brute-force oracle, which needs no boundedness hypothesis.
Exhaustive mode decides each subset on bitmasks of the lattice's lines,
computed once per scan with the integer kernel: a line is simple in a subset S
iff its mask meets S in exactly two cells, and S has a wedge iff two simple
lines share an endpoint. In both modes every wedge-free find is re-verified
from scratch by the oracle before it is reported, since a single confirmed one
would settle the question negatively; an oracle that disagrees with the masks
raises InternalInvariantError.

Reproducibility contract (fixed; never to change silently): randomness comes
from SplitMix64, and trial number `t` under seed `s` uses an independent
stream seeded with mix64(s XOR mix64(t + 1)), where mix64 is the SplitMix64
output scrambler. Bounded draws use rejection, so there is no modulo bias and
no platform dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import Point, normalize_line
from .incidence import (
    Configuration,
    ConfigurationError,
    InternalInvariantError,
    build_configuration,
)
from .pointio import write_points
from .wedges import brute_force_wedges

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The exhaustive scan's pair table has grid**4 entries: about 8 MB of
# references at this side length, 800 MB at 100. Larger grids are refused
# before the table is built.
MAX_GRID = 32


def mix64(value: int) -> int:
    """SplitMix64 output scrambler (Steele/Lea/Flood finalizer)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; identical output on every platform."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next64()
            if value < limit:
                return value % bound


def trial_rng(seed: int, trial: int) -> SplitMix64:
    """Independent per-trial stream derived from (seed, trial)."""
    return SplitMix64(mix64(seed ^ mix64(trial + 1)))


def sample_configuration(
    n: int, coord_range: int, rng: SplitMix64
) -> Tuple[Configuration, int]:
    """Sample n distinct integer points uniformly from [-range, range]^2 and
    validate them; collinear draws reject the whole trial and resample.
    Returns the configuration and the number of rejected draws."""
    side = 2 * coord_range + 1
    if n > side * side:
        raise ValueError(f"cannot place {n} distinct points on a {side}x{side} lattice")
    rejections = 0
    while True:
        seen = set()
        points: List[Point] = []
        while len(points) < n:
            cell = rng.below(side * side)
            xy = (cell % side - coord_range, cell // side - coord_range)
            if xy in seen:
                continue
            seen.add(xy)
            points.append(Point(*xy))
        try:
            return build_configuration(points), rejections
        except ConfigurationError:
            rejections += 1


@dataclass(frozen=True)
class ConjectureTrialResult:
    """One wedge-free trial: enough to replay and re-check it."""

    seed: int
    trial: int
    n: int
    points: Tuple[Point, ...]
    wedge_found: bool


@dataclass(frozen=True)
class SearchStats:
    mode: str
    trials: int = 0
    collinear_rejections: int = 0
    subsets_scanned: int = 0
    subsets_skipped: int = 0


def _reverify(result: ConjectureTrialResult) -> None:
    try:
        config = build_configuration(result.points)
    except ConfigurationError as exc:
        raise InternalInvariantError(
            f"candidate counterexample failed re-verification: {exc}"
        ) from exc
    if brute_force_wedges(config):
        raise InternalInvariantError(
            "candidate counterexample failed re-verification: a wedge exists after all"
        )


def _record_wedge_free(
    failures: List[ConjectureTrialResult], seed: int, trial: int, points: Sequence[Point]
) -> None:
    """The one failure path of both modes: re-verify from scratch, record."""
    result = ConjectureTrialResult(seed, trial, len(points), tuple(points), False)
    _reverify(result)
    failures.append(result)


def _check_size(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd number >= 3, got {n}")


def exhaustive_subset_count(n: int, grid: int) -> int:
    """Validate an exhaustive run and return the number of n-subsets it scans,
    comb(grid**2, n). Raises ValueError for a size the search refuses and for
    a grid smaller than 2, larger than MAX_GRID, or with fewer than n cells."""
    _check_size(n)
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    if n > grid * grid:
        raise ValueError(f"cannot choose {n} points from a {grid}x{grid} grid")
    return math.comb(grid * grid, n)


def search_with_stats(
    n: int,
    *,
    trials: Optional[int] = None,
    seed: int = 0,
    coord_range: int = 50,
    grid: Optional[int] = None,
) -> Tuple[List[ConjectureTrialResult], SearchStats]:
    """Run the search and return (wedge-free results, run statistics).

    Pass `grid` for exhaustive mode, otherwise `trials` for random mode.
    Only odd n >= 3 is meaningful: even sizes have known wedge-free sets.
    """
    _check_size(n)
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if coord_range < 1:
        raise ValueError(f"coordinate range must be at least 1, got {coord_range}")
    if grid is not None:
        exhaustive_subset_count(n, grid)  # before any table is built
        return _exhaustive_search(n, grid)
    if trials is None:
        raise ValueError("random mode requires a trial count")
    failures: List[ConjectureTrialResult] = []
    rejections = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        config, rejected = sample_configuration(n, coord_range, rng)
        rejections += rejected
        if not brute_force_wedges(config):
            _record_wedge_free(failures, seed, trial, config.points)
    stats = SearchStats("random", trials=trials, collinear_rejections=rejections)
    return failures, stats


def _grid_line_table(grid: int) -> List[List[int]]:
    """`line[i][j]` is the bitmask of every cell on the line through cells
    i != j of the grid x grid lattice (bit c set for cell c); the diagonal is 0.
    Lines are told apart by their normalized integer triple."""
    size = grid * grid
    lines: Dict[Tuple[int, int, int], List[int]] = {}
    for i, j in combinations(range(size), 2):
        xi, yi = i % grid, i // grid
        a, b = j // grid - yi, xi - j % grid
        on_line = lines.setdefault(normalize_line(a, b, -(a * xi + b * yi)), [i])
        # pairs come in lexicographic order, so a line's pairs with its first
        # cell list each of its other cells exactly once
        if on_line[0] == i:
            on_line.append(j)
    line = [[0] * size for _ in range(size)]
    for on_line in lines.values():
        mask = sum(1 << c for c in on_line)
        for i, j in combinations(on_line, 2):
            line[i][j] = line[j][i] = mask
    return line


def _exhaustive_search(n: int, grid: int) -> Tuple[List[ConjectureTrialResult], SearchStats]:
    size = grid * grid
    line = _grid_line_table(grid)
    bit = [1 << i for i in range(size)]
    failures: List[ConjectureTrialResult] = []
    skipped = 0
    for index, combo in enumerate(combinations(range(size), n)):
        subset = 0
        for c in combo:
            subset |= bit[c]
        if line[combo[0]][combo[1]] & subset == subset:
            skipped += 1
            continue
        # a wedge is two simple lines with a common endpoint
        endpoints = 0
        for a, b in combinations(combo, 2):
            if (line[a][b] & subset).bit_count() == 2:
                pair = bit[a] | bit[b]
                if endpoints & pair:
                    break
                endpoints |= pair
        else:
            # cell c -> (x = c mod grid, y = c div grid): row-major lattice order
            points = [Point(c % grid, c // grid) for c in combo]
            _record_wedge_free(failures, 0, index, points)
    stats = SearchStats("exhaustive", subsets_scanned=math.comb(size, n), subsets_skipped=skipped)
    return failures, stats


def write_counterexample(result: ConjectureTrialResult, grid: Optional[int]) -> str:
    """Write a wedge-free find to a point file in the working directory and
    return its name. Random finds (`grid` None) are named by seed and trial,
    exhaustive ones by grid and subset index, so no two runs share a name."""
    if grid is None:
        name = f"counterexample-n{result.n}-seed{result.seed}-trial{result.trial}.txt"
    else:
        name = f"counterexample-n{result.n}-grid{grid}-subset{result.trial}.txt"
    Path(name).write_text(write_points(result.points), encoding="utf-8")
    return name


def conjecture_search(
    n: int,
    *,
    trials: Optional[int] = None,
    seed: int = 0,
    coord_range: int = 50,
    grid: Optional[int] = None,
) -> List[ConjectureTrialResult]:
    """Wedge-free trials only (empty list is the expected outcome)."""
    failures, _ = search_with_stats(
        n, trials=trials, seed=seed, coord_range=coord_range, grid=grid
    )
    return failures

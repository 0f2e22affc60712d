"""Conjecture search: does every odd-size non-collinear set span a wedge?

Two modes. Random mode samples n distinct integer points per trial from
[-range, range]^2, resampling a whole trial when the draw is collinear;
exhaustive mode scans every n-subset of a G x G lattice. Detection always uses
the brute-force oracle — the question places no boundedness hypothesis — and
any wedge-free find is re-verified from scratch before it is reported, since
a single confirmed one would settle the question negatively.

Reproducibility contract (fixed; never to change silently): randomness comes
from SplitMix64, and trial number `t` under seed `s` uses an independent
stream seeded with mix64(s XOR mix64(t + 1)), where mix64 is the SplitMix64
output scrambler. Bounded draws use rejection, so there is no modulo bias and
no platform dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import List, Optional, Tuple

from .geometry import Point
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
    config = build_configuration(result.points)
    if brute_force_wedges(config):
        raise InternalInvariantError(
            "candidate counterexample failed re-verification: a wedge exists after all"
        )


def _record_if_wedge_free(
    failures: List[ConjectureTrialResult], seed: int, trial: int, config: Configuration
) -> None:
    """The one failure path of both modes: detect, re-verify, record."""
    if not brute_force_wedges(config):
        result = ConjectureTrialResult(seed, trial, len(config.points), config.points, False)
        _reverify(result)
        failures.append(result)


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
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd number >= 3, got {n}")
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if coord_range < 1:
        raise ValueError(f"coordinate range must be at least 1, got {coord_range}")
    if grid is not None:
        return _exhaustive_search(n, grid)
    if trials is None:
        raise ValueError("random mode requires a trial count")
    failures: List[ConjectureTrialResult] = []
    rejections = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        config, rejected = sample_configuration(n, coord_range, rng)
        rejections += rejected
        _record_if_wedge_free(failures, seed, trial, config)
    stats = SearchStats("random", trials=trials, collinear_rejections=rejections)
    return failures, stats


def _exhaustive_search(n: int, grid: int) -> Tuple[List[ConjectureTrialResult], SearchStats]:
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    # cell index i -> (x = i mod grid, y = i div grid): row-major lattice order
    cells = [Point(i % grid, i // grid) for i in range(grid * grid)]
    if n > len(cells):
        raise ValueError(f"cannot choose {n} points from a {grid}x{grid} grid")
    failures: List[ConjectureTrialResult] = []
    scanned = 0
    skipped = 0
    for index, combo in enumerate(combinations(cells, n)):
        scanned += 1
        try:
            config = build_configuration(combo)
        except ConfigurationError:
            skipped += 1
            continue
        _record_if_wedge_free(failures, 0, index, config)
    stats = SearchStats("exhaustive", subsets_scanned=scanned, subsets_skipped=skipped)
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

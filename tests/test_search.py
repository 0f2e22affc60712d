from itertools import combinations
from math import comb

import pytest

from simplewedge import (
    ConfigurationError,
    ConjectureTrialResult,
    InternalInvariantError,
    Point,
    SplitMix64,
    brute_force_wedges,
    build_configuration,
    conjecture_search,
    sample_configuration,
    search_with_stats,
    trial_rng,
)
from simplewedge import search
from simplewedge.search import mix64


def test_splitmix64_reference_vector():
    """First outputs from state 0 must match the published splitmix64
    sequence, pinning the algorithm across platforms and versions."""
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_mix64_masks_to_64_bits():
    assert 0 <= mix64(-1) < 2**64
    assert 0 <= mix64(2**200 + 17) < 2**64


def test_below_is_in_range_and_deterministic():
    rng = SplitMix64(42)
    values = [rng.below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in values)
    rng2 = SplitMix64(42)
    assert values == [rng2.below(10) for _ in range(200)]
    with pytest.raises(ValueError):
        rng.below(0)


def test_trial_rng_streams():
    assert trial_rng(7, 0).next64() == trial_rng(7, 0).next64()
    assert trial_rng(7, 0).next64() != trial_rng(7, 1).next64()
    assert trial_rng(7, 0).next64() != trial_rng(8, 0).next64()


def test_sample_configuration_properties():
    config, rejections = sample_configuration(9, 50, trial_rng(3, 11))
    assert len(config.points) == 9
    assert len(set(config.points)) == 9
    assert all(-50 <= p.x <= 50 and -50 <= p.y <= 50 for p in config.points)
    assert rejections >= 0


def test_sample_configuration_reproducible():
    first, _ = sample_configuration(7, 50, trial_rng(1, 5))
    second, _ = sample_configuration(7, 50, trial_rng(1, 5))
    assert first.points == second.points


def test_sample_configuration_rejects_collinear_draw():
    # on the 3x3 lattice with n=3 this seeded stream first draws a collinear
    # triple, rejects it, and resamples a valid one
    config, rejections = sample_configuration(3, 1, trial_rng(5, 7))
    assert rejections == 1
    assert [(int(p.x), int(p.y)) for p in config.points] == [(0, -1), (0, 1), (-1, 0)]


def test_sample_configuration_rejects_impossible_count():
    with pytest.raises(ValueError):
        sample_configuration(10, 1, trial_rng(0, 0))


def test_search_rejects_even_or_tiny_n():
    for n in (4, 2, 6, -1):
        with pytest.raises(ValueError):
            conjecture_search(n, trials=1)


def test_search_requires_mode_parameters():
    with pytest.raises(ValueError):
        conjecture_search(5)


def test_search_rejects_negative_trials_and_empty_range():
    with pytest.raises(ValueError, match="trials must be non-negative"):
        search_with_stats(5, trials=-5)
    for coord_range in (0, -2):
        with pytest.raises(ValueError, match="coordinate range must be at least 1"):
            search_with_stats(5, trials=3, coord_range=coord_range)
    assert search_with_stats(5, trials=0)[1].trials == 0


def test_exhaustive_small_grid():
    failures, stats = search_with_stats(5, grid=3)
    assert stats.subsets_scanned == 126  # C(9, 5)
    assert stats.subsets_skipped == 0  # no 5 collinear cells on a 3x3 grid
    assert failures == []


def test_exhaustive_skips_collinear_subsets():
    # n=3 on a 3x3 grid: C(9,3) = 84 subsets, 8 of them collinear
    failures, stats = search_with_stats(3, grid=3)
    assert stats.subsets_scanned == 84
    assert stats.subsets_skipped == 8
    assert failures == []


def test_random_mode_small_run():
    failures, stats = search_with_stats(7, trials=50, seed=1, coord_range=50)
    assert stats.trials == 50
    assert failures == []


def test_random_mode_reproducible():
    first = search_with_stats(7, trials=20, seed=9, coord_range=12)
    second = search_with_stats(7, trials=20, seed=9, coord_range=12)
    assert first == second


def test_random_trial_points_pinned():
    """Freeze the first sampled trial for one (n, seed, range): any change to
    the generator or the sampling order breaks reproducibility of records."""
    config, _ = sample_configuration(5, 10, trial_rng(2024, 0))
    assert [(int(p.x), int(p.y)) for p in config.points] == [
        (-6, -8),
        (-6, -5),
        (5, -7),
        (1, -6),
        (-4, -4),
    ]


def test_exhaustive_iterates_lattice_row_major():
    """Subset order is lexicographic over cells numbered row-major: the cell
    at index i is (i mod G, i div G)."""
    from itertools import combinations, islice

    from simplewedge import Point

    cells = [Point(i % 2, i // 2) for i in range(4)]
    first = [
        tuple((int(p.x), int(p.y)) for p in combo)
        for combo in islice(combinations(cells, 3), 4)
    ]
    assert first == [
        ((0, 0), (1, 0), (0, 1)),
        ((0, 0), (1, 0), (1, 1)),
        ((0, 0), (0, 1), (1, 1)),
        ((1, 0), (0, 1), (1, 1)),
    ]
    # the full 2x2 scan sees all four subsets and skips none
    failures, stats = search_with_stats(3, grid=2)
    assert stats.subsets_scanned == 4
    assert stats.subsets_skipped == 0
    assert failures == []


def test_reverify_rejects_false_failures():
    from simplewedge import InternalInvariantError
    from simplewedge.search import _reverify

    triangle = build_configuration([(0, 0), (1, 0), (0, 1)])
    fake = ConjectureTrialResult(0, 0, 3, triangle.points, False)
    with pytest.raises(InternalInvariantError):
        _reverify(fake)


def _reference_scan(n, grid):
    """The literal per-subset definition: build each subset, skip the
    collinear ones, call it wedge-free when the oracle lists no wedge."""
    cells = [Point(i % grid, i // grid) for i in range(grid * grid)]
    scanned = skipped = 0
    free = []
    for index, combo in enumerate(combinations(cells, n)):
        scanned += 1
        try:
            config = build_configuration(combo)
        except ConfigurationError:
            skipped += 1
            continue
        if not brute_force_wedges(config):
            free.append(index)
    return scanned, skipped, free


@pytest.mark.parametrize(
    "n, grid, skipped", [(3, 2, 0), (3, 3, 8), (5, 3, 0), (3, 4, 44), (4, 4, 10), (5, 4, 0)]
)
def test_exhaustive_bitmasks_match_reference_scan(n, grid, skipped):
    failures, stats = search._exhaustive_search(n, grid)
    got = (stats.subsets_scanned, stats.subsets_skipped, [r.trial for r in failures])
    assert got == _reference_scan(n, grid)
    assert got[:2] == (comb(grid * grid, n), skipped)


def test_exhaustive_even_size_finds_wedge_free_subsets():
    """Even n has wedge-free sets, and 68 of the 6-subsets of the 5x5 grid are
    such sets (none of the 6-subsets of 3x3 or 4x4 is), so this scan runs
    the failure path with real finds."""
    failures, stats = search._exhaustive_search(6, 5)
    assert stats.subsets_scanned == comb(25, 6)
    assert len(failures) == 68
    assert [r.trial for r in failures[:4]] == [1984, 2633, 3119, 3279]
    for result in failures:
        assert result.n == 6 and not result.wedge_found
        assert all(0 <= p.x < 5 and 0 <= p.y < 5 for p in result.points)
        assert not brute_force_wedges(build_configuration(result.points))


@pytest.mark.parametrize(
    "grid, lies, message",
    [
        # the triangle (0,0), (1,0), (0,1): two of its three simple lines made
        # to read as carrying all three cells, so the masks see one simple line
        (2, [((0, 2), 0b111), ((1, 2), 0b111)], "a wedge exists after all"),
        # the collinear row (0,0), (1,0), (2,0): its first pair made to read as
        # a line of its own, so the masks see a non-collinear subset
        (3, [((0, 1), 0b011)], "contained in a line"),
    ],
)
def test_exhaustive_raises_when_oracle_contradicts_masks(monkeypatch, grid, lies, message):
    """A subset the masks wrongly call wedge-free is re-verified and raises;
    it is neither reported nor skipped."""
    real_table, real_reverify = search._grid_line_table, search._reverify
    checked = []

    def lying_table(g):
        line = real_table(g)
        for (i, j), mask in lies:
            line[i][j] = line[j][i] = mask
        return line

    def spy(result):
        checked.append([(int(p.x), int(p.y)) for p in result.points])
        real_reverify(result)

    monkeypatch.setattr(search, "_grid_line_table", lying_table)
    monkeypatch.setattr(search, "_reverify", spy)
    with pytest.raises(InternalInvariantError, match=message):
        search._exhaustive_search(3, grid)
    # subset 0 of the scan, cells 0, 1, 2
    assert checked == [[(c % grid, c // grid) for c in (0, 1, 2)]]


@pytest.mark.parametrize("grid, lines", [(2, 6), (3, 20), (4, 62), (5, 140), (6, 306)])
def test_grid_line_table_counts_lattice_lines(grid, lines):
    """Lines through at least two points of a G x G grid: OEIS A018808."""
    line = search._grid_line_table(grid)
    size = grid * grid
    masks = {line[i][j] for i in range(size) for j in range(size) if i != j}
    assert len(masks) == lines
    assert all(mask.bit_count() >= 2 for mask in masks)
    for i in range(size):
        assert line[i][i] == 0
        for j in range(size):
            if i != j:
                assert line[i][j] == line[j][i] and line[i][j] >> i & 1 and line[i][j] >> j & 1


def test_exhaustive_rejects_intractable_grid_before_building_anything(monkeypatch):
    def no_table(grid):
        raise AssertionError("the line table must not be built for a refused grid")

    monkeypatch.setattr(search, "_grid_line_table", no_table)
    for grid in (search.MAX_GRID + 1, 100, 10**6):
        with pytest.raises(ValueError, match=f"grid must be at most {search.MAX_GRID}"):
            search_with_stats(5, grid=grid)
    for grid in (1, 0, -3):
        with pytest.raises(ValueError, match="grid must be at least 2"):
            search_with_stats(5, grid=grid)
    with pytest.raises(ValueError, match="cannot choose 11 points"):
        search_with_stats(11, grid=3)
    assert search.exhaustive_subset_count(5, 4) == 4368

import pytest

from simplewedge import (
    ConjectureTrialResult,
    SplitMix64,
    build_configuration,
    conjecture_search,
    sample_configuration,
    search_with_stats,
    trial_rng,
)
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

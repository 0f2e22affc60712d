#!/usr/bin/env python3
"""Sweep the wedge conjecture at desk scale and print a summary table.

Runs the exhaustive scans that are feasible in seconds, then seeded random
batches for a range of odd sizes. Any wedge-free configuration would be
written to a point file and reported loudly; finding one would be a result.
"""

import argparse
import sys
import time

from simplewedge import search_with_stats, write_counterexample


def _save(failures, grid) -> int:
    for result in failures:
        print(f"    !! wedge-free configuration saved to {write_counterexample(result, grid)}")
    return len(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000, help="random trials per size")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--range", type=int, default=50, dest="coord_range")
    parser.add_argument("--sizes", type=int, nargs="*", default=[7, 9, 11, 13])
    args = parser.parse_args()

    total_failures = 0

    print("exhaustive scans")
    for n, grid in ((5, 3), (7, 4), (9, 5), (11, 5)):
        started = time.perf_counter()
        failures, stats = search_with_stats(n, grid=grid)
        print(
            f"  n={n} grid={grid}x{grid}: {stats.subsets_scanned} subsets "
            f"({stats.subsets_skipped} collinear skipped), {len(failures)} wedge-free "
            f"[{time.perf_counter() - started:.1f}s]"
        )
        total_failures += _save(failures, grid)

    print(f"random batches: {args.trials} trials each, seed={args.seed}, range={args.coord_range}")
    for n in args.sizes:
        if n % 2 == 0:
            print(f"  n={n}: skipped (even)")
            continue
        started = time.perf_counter()
        failures, stats = search_with_stats(
            n, trials=args.trials, seed=args.seed, coord_range=args.coord_range
        )
        print(
            f"  n={n}: {stats.trials} trials ({stats.collinear_rejections} collinear "
            f"resampled), {len(failures)} wedge-free [{time.perf_counter() - started:.1f}s]"
        )
        total_failures += _save(failures, None)

    if total_failures:
        print(f"{total_failures} wedge-free configuration(s) found — inspect the saved files")
        return 3
    print("no wedge-free odd configuration found")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the two-stage LAPACK eigenvalue drivers against np.linalg.eigvalsh.

Run from the repository root on an idle machine:

    PYTHONPATH=src python tests/two_stage_sweep.py [repeats]

For random Hermitian matrices of each size it prints the median time of both
routes and their ratio (two-stage over eigvalsh), one BLAS thread, and for each
dtype the smallest size from which the two-stage driver wins on every larger
size of the grid: the figure gram._TWO_STAGE_MIN_N is set from.  The driver
runs through gram._bounds with the minimums lifted, and overwrites a fresh
copy made outside the timer; eigvalsh copies internally.
"""

import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import numpy as np  # noqa: E402

from rieszforge import gram  # noqa: E402

GRID = {
    np.dtype(np.float64): (512, 768, 896, 960, 1024, 1536, 2048),
    np.dtype(np.complex128): (128, 256, 320, 384, 512, 648, 800, 1024),
}


def median_time(solve, a, repeats):
    times = []
    for _ in range(repeats):
        b = a.copy()
        start = time.perf_counter()
        solve(b)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(repeats=5):
    drivers, chosen = gram._openblas(), dict(gram._TWO_STAGE_MIN_N)
    gram._TWO_STAGE_MIN_N = dict.fromkeys(GRID, 0)  # every size takes the driver
    rng = np.random.default_rng(0)
    for dtype, sizes in GRID.items():
        driver = drivers.get(dtype)
        if driver is None:
            print(f"{dtype}: no two-stage driver in this numpy's LAPACK")
            continue
        print(f"{dtype}: n, eigvalsh s, two-stage s, ratio")
        ratios = {}
        for n in sizes:
            a = rng.standard_normal((n, n)).astype(dtype)
            if dtype.kind == "c":
                a += 1j * rng.standard_normal((n, n))
            a += a.conj().T
            ref = median_time(np.linalg.eigvalsh, a, repeats)
            new = median_time(lambda b: gram._bounds([b], n), a, repeats)
            ratios[n] = new / ref
            print(f"  {n:5d} {ref:9.4f} {new:9.4f} {ratios[n]:6.2f}")
        wins = [n for i, n in enumerate(sizes) if all(ratios[m] < 1 for m in sizes[i:])]
        print(f"  minimum: {wins[0] if wins else None} "
              f"(set: {chosen[dtype]})")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))

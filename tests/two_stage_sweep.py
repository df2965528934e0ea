"""Time the one-stage and two-stage tridiagonal reductions of gram._bounds.

Run from the repository root on an idle machine:

    PYTHONPATH=src python tests/two_stage_sweep.py [repeats]

For random Hermitian matrices of each size it prints the median time of
gram._bounds through the one-stage reduction (?sytrd/?hetrd) and through the
two-stage one (?sytrd_2stage/?hetrd_2stage), both followed by the two dstemr
picks, their ratio (two-stage over one-stage), and np.linalg.eigvalsh for
reference, on one BLAS thread.  For each dtype it then prints the smallest
size from which the two-stage reduction wins on every larger size of the
grid: the figure gram._TWO_STAGE_MIN_N is set from.  Each route solves a
fresh copy made outside the timer, in place; eigvalsh copies internally.
"""

import math
import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import numpy as np  # noqa: E402

from rieszforge import gram  # noqa: E402

GRID = {
    np.dtype(np.float64): (256, 384, 512, 640, 768, 896, 1024, 1536, 2048),
    np.dtype(np.complex128): (128, 192, 256, 320, 384, 512, 648, 800, 1024),
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
    chosen = dict(gram._TWO_STAGE_MIN_N)
    symbols = gram._openblas()
    rng = np.random.default_rng(0)
    for dtype, sizes in GRID.items():
        if not {(False, dtype), (True, dtype), "stemr"} <= symbols.keys():
            print(f"{dtype}: no tridiagonal reductions or dstemr in this numpy's LAPACK")
            continue
        print(f"{dtype}: n, eigvalsh s, one-stage s, two-stage s, two-stage / one-stage")
        ratios = {}
        for n in sizes:
            a = rng.standard_normal((n, n)).astype(dtype)
            if dtype.kind == "c":
                a += 1j * rng.standard_normal((n, n))
            a += a.conj().T
            ref = median_time(np.linalg.eigvalsh, a, repeats)
            times = []
            for minimum in (math.inf, 0):  # every size one-stage, then every size two-stage
                gram._TWO_STAGE_MIN_N = {**chosen, dtype: minimum}
                times.append(median_time(lambda b: gram._bounds([b], n), a, repeats))
            gram._TWO_STAGE_MIN_N = chosen
            ratios[n] = times[1] / times[0]
            print(f"  {n:5d} {ref:9.4f} {times[0]:9.4f} {times[1]:9.4f} {ratios[n]:6.2f}")
        wins = [n for i, n in enumerate(sizes) if all(ratios[m] < 1 for m in sizes[i:])]
        print(f"  minimum: {wins[0] if wins else None} (set: {chosen[dtype]})")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))

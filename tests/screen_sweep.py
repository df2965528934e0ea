"""Time the unblocked and blocked Cholesky screens of frames._search.

Run from the repository root on an idle machine:

    PYTHONPATH=src python tests/screen_sweep.py [repeats]

For Hermitian blocks of each size it prints the median time, in microseconds,
of one call of the screen gram._cholesky_factors binds, through unblocked
?potf2 and through blocked ?potrf, and their ratio (potf2 over potrf), on one
BLAS thread: for a positive definite block, which factors completely, and
for one that fails at pivot n // 3, as most of select's screens fail early.
Each call screens a fresh copy of the block, written into the bound buffer
outside the timer.  For each dtype it then prints the largest size up to which
?potf2 takes at most TIE times as long as ?potrf on every size of the grid, for
full factorizations, the slower case for it; up to 32 rows OpenBLAS's ?potrf
runs ?potf2 itself, so the two tie there.  The smaller of the two figures is
the one gram._UNBLOCKED_MAX_N is set from.
"""

import math
import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import numpy as np  # noqa: E402

from rieszforge import gram  # noqa: E402

SIZES = (32, 48, 64, 80, 96, 112, 128, 160, 192, 256, 384, 512)
TIE = 1.05  # a ratio this close to 1 is within the timing noise


def median_us(a, repeats):
    """Median microseconds of the ?potf2 and the ?potrf screen on a, in turns, so drift
    in the machine's speed reaches both alike."""
    chosen, screens = gram._UNBLOCKED_MAX_N, []
    for limit in (math.inf, 0):  # every size to ?potf2, then every size to ?potrf
        gram._UNBLOCKED_MAX_N = limit
        b = np.empty_like(a)
        screens.append((b, gram._cholesky_factors(b)))
    gram._UNBLOCKED_MAX_N = chosen
    times = [[], []]
    for _ in range(repeats):
        for (b, screen), spent in zip(screens, times):
            b[...] = a
            start = time.perf_counter()
            screen()
            spent.append(time.perf_counter() - start)
    return [1e6 * statistics.median(t) for t in times]


def blocks(n, dtype, rng):
    """A positive definite block and a copy failing at pivot n // 3: its diagonal
    entry there is -1, below the squared norm of the factor's row above it."""
    x = rng.standard_normal((n, n)).astype(dtype)
    if dtype.kind == "c":
        x += 1j * rng.standard_normal((n, n))
    full = x @ x.conj().T / n + np.eye(n)
    early = full.copy()
    early[n // 3, n // 3] = -1.0
    return full, early


def main(repeats=1001):
    chosen = gram._UNBLOCKED_MAX_N
    symbols = gram._openblas()
    rng = np.random.default_rng(0)
    for dtype in (np.dtype(np.float64), np.dtype(np.complex128)):
        if not {("potf2", dtype), ("potrf", dtype)} <= symbols.keys():
            print(f"{dtype}: no ?potf2 or ?potrf in this numpy's LAPACK")
            continue
        print(f"{dtype}: n, full potf2 us, potrf us, ratio, fail at n/3 potf2 us, potrf us, ratio")
        ratios = {}
        for n in SIZES:
            row = []
            for a in blocks(n, dtype, rng):
                potf2, potrf = median_us(a, repeats)
                row += [potf2, potrf, potf2 / potrf]
            ratios[n] = row[2]
            print(f"  {n:4d}" + "".join(f" {t:8.1f} {u:8.1f} {r:5.2f}" for t, u, r in
                                        (row[:3], row[3:])))
        wins = [n for i, n in enumerate(SIZES) if all(ratios[m] <= TIE for m in SIZES[:i + 1])]
        print(f"  unblocked up to: {wins[-1] if wins else None} (set: {chosen})")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))

"""Lattice partitions for d-dimensional selection, and their section and covering checks.

The cycling partition splits each aligned r-cube of Z^d into r^(d-1) axis
segments of length r; the segment axis j cycles with the cube through

    j = (k_1 + ... + k_d)/r  mod d      (residue 0 means axis d),

so a one-per-segment selector stays syndetic along every one-dimensional
section, with gaps at most 2*d*r.  The plain cube partition gives selectors
with covering radius at most s*sqrt(d).  A partition is an int64 array of
shape (parts, cells per part, d), and the checks read points as the (n, d)
int64 array of quadfield.integer_points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quadfield import integer_points, integers
from .quasicrystal import GapStats, gap_stats

__all__ = [
    "LatticeWindow",
    "cycling_partition",
    "cube_partition",
    "covering_radius",
    "section_gaps",
    "section_report",
]


@dataclass(frozen=True)
class LatticeWindow:
    """Inclusive box [lo_1, hi_1] x ... x [lo_d, hi_d] of lattice points."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = integers(self.lo, "window lo")
        hi = integers(self.hi, "window hi")
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be non-empty and of equal length")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"window {lo}..{hi} is reversed")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def side_lengths(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def require_aligned(self, r: int) -> None:
        for a, s in zip(self.lo, self.side_lengths):
            if a % r != 0 or s % r != 0:
                raise ValueError(f"window {self.lo}..{self.hi} is not aligned to step {r}")

    def contains(self, pt) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lo, pt, self.hi))

    def points(self):
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))


def _aligned_cubes(d: int, step: int, window: LatticeWindow, what: str):
    """Validate a partition request: the bases of its aligned step-cubes, a
    (cubes, d) int64 array in lexicographic order, and the offsets of a cube's
    cells, indexed [o_1, ..., o_d, coordinate].  Allocates nothing on failure."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if step < 1:
        raise ValueError(f"{what} must be >= 1")
    if window.dim != d:
        raise ValueError(f"window dimension {window.dim} != {d}")
    window.require_aligned(step)
    integer_points([window.lo, window.hi])  # every cell fits in int64
    axes = [a + np.arange(0, n, step, dtype=np.int64)
            for a, n in zip(window.lo, window.side_lengths)]
    bases = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return bases, np.moveaxis(np.indices((step,) * d, dtype=np.min_scalar_type(step - 1)), 0, -1)


def cycling_partition(d: int, r: int, window: LatticeWindow) -> np.ndarray:
    """Partition the window into axis segments of length r with cycling axes:
    an int64 array of shape (segments, r, d), each segment's cells in order
    along its axis, the one coordinate that varies along it.

    The window must be aligned: every lo coordinate and every side length a
    multiple of r.  The cubes run in lexicographic order of their bases k; the
    segments of the cube at k run along axis j(k) = ((k_1+...+k_d)/r mod d,
    0 -> d), and the remaining coordinates take all r^(d-1) offset combinations
    in lexicographic order.
    """
    d, r = integers([d, r], "dimension and segment length")
    bases, rel = _aligned_cubes(d, r, window, "segment length")
    # the axis rule, each k_i/r reduced mod d so that the sum cannot wrap
    turn = (bases // r % d).sum(axis=1) % d  # 0-based axis (turn - 1) mod d
    cells = np.empty((len(bases), r ** (d - 1), r, d), np.int64)
    for i in range(d):  # the cubes whose segments run along axis i + 1: that offset last
        along = turn == (i + 1) % d
        cells[along] = bases[along][:, None, None] + np.moveaxis(rel, i, -2).reshape(-1, r, d)
    return cells.reshape(-1, r, d)


def cube_partition(d: int, s: int, window: LatticeWindow) -> np.ndarray:
    """Partition the window into aligned s-cubes (window must be aligned to s):
    an int64 array of shape (cubes, s**d, d), cubes in lexicographic order of
    their bases, each cube's cells in lexicographic order."""
    d, s = integers([d, s], "dimension and cube side")
    bases, rel = _aligned_cubes(d, s, window, "cube side")
    return bases[:, None, :] + rel.reshape(-1, d)


def covering_radius(points, window: LatticeWindow) -> float:
    """Largest Euclidean distance from a window lattice point to `points`.

    points are integer points inside the window: d-tuples, integers in 1-D or
    an (n, d) integer array.  Exact, as the sqrt of an integer squared distance on a
    float64 grid shaped like the window.  At most 2B points are measured one
    at a time.  Otherwise a separable distance transform (Saito & Toriwaki
    1994) takes the exact distance along the first axis in two scans, then,
    banded, sets g[x] = min over |o| <= B of g[x + o] + o^2 along each other
    axis.  That is the squared distance to the nearest point within B along
    each of those axes, exact wherever it is at most B^2, so a grid maximum
    above B^2 reruns with a wider band.  B starts at ceil(sqrt(d) *
    (cells/points)^(1/d)), which settles a one-per-cube selector in one pass;
    a pass costs O(d * B * cells) time and a few cell-sized grids of memory.
    """
    arr, inside = _window_points(points, window)
    (n, d), sides = arr.shape, window.side_lengths
    if not n:
        raise ValueError("empty point set")
    if not inside.all():
        p = tuple(arr[~inside][0].tolist())
        raise ValueError(f"point {p} lies outside the window {window.lo}..{window.hi}")
    low = arr.min(axis=0)
    # offsets from the window's corner; no int64 value leaves the points' own range
    idx = tuple((arr - low + [int(m) - a for m, a in zip(low, window.lo)]).T)
    # on axes 2..d, a band this wide reaches every point from every cell
    widest = max(sides[1:], default=1) - 1
    band = min(math.ceil(math.sqrt(d) * (math.prod(sides) / n) ** (1 / d)), widest)
    if n <= 2 * band:
        axes = np.ogrid[tuple(slice(0, s) for s in sides)]
        sq = np.full(sides, np.inf)
        for p in zip(*idx):
            np.minimum(sq, sum((x - c) ** 2 for x, c in zip(axes, p)), out=sq)
    else:
        hit = np.zeros(sides, bool)
        hit[idx] = True
        at = np.arange(sides[0], dtype=float).reshape(-1, *[1] * (d - 1))
        before = np.maximum.accumulate(np.where(hit, at, -np.inf), axis=0)
        after = np.minimum.accumulate(np.where(hit, at, np.inf)[::-1], axis=0)[::-1]
        lines = np.minimum(at - before, after - at) ** 2
        del hit, before, after
        while True:
            sq = _banded_squares(lines, band)
            top = sq.max()
            if top <= band * band or band == widest:  # the nearest point lies in the band
                break
            band = min(math.isqrt(int(top) - 1) + 1 if top < np.inf else 2 * band, widest)
    return math.sqrt(int(sq.max()))


def _banded_squares(lines: np.ndarray, band: int) -> np.ndarray:
    """min over offsets o with |o_k| <= band on axes 2..d of lines[x + o] + |o|^2,
    one axis at a time: from squared distances along the first axis, the squared
    distance to the nearest point within `band` on the others (inf if none)."""
    g, shifted = lines, np.empty_like(lines)
    for axis in range(1, g.ndim):
        out = g.copy()
        for o in range(1, min(band, g.shape[axis] - 1) + 1):
            ahead = (slice(None),) * axis + (slice(o, None),)
            behind = (slice(None),) * axis + (slice(None, -o),)
            for src, dst in ((ahead, behind), (behind, ahead)):
                np.add(g[src], o * o, out=shifted[dst])
                np.minimum(out[dst], shifted[dst], out=out[dst])
        g = out
    return g


def _window_points(points, window: LatticeWindow) -> tuple[np.ndarray, np.ndarray]:
    """points, read by integer_points (an empty set as no points), as an (n, d)
    int64 array, and the mask of those inside the window; ValueError on points
    of another dimension.  An array is read as it is, any other iterable once."""
    points = points if isinstance(points, np.ndarray) else list(points)
    arr = integer_points(points) if len(points) else np.empty((0, window.dim), np.int64)
    if arr.shape[1] != window.dim:
        raise ValueError(f"points of dimension {arr.shape[1]} in a {window.dim}-D window")
    return arr, np.all([(a <= x) & (x <= b) for x, a, b in zip(arr.T, window.lo, window.hi)], 0)


def section_gaps(points, axis: int, fixed: tuple[int, ...],
                 window: LatticeWindow) -> GapStats:
    """Gap statistics of the 1-D section of `points` along `axis` (1-based).

    fixed supplies the d-1 frozen coordinates in order (axis coordinate
    omitted).  points are read as in section_report; those outside the window
    are ignored.
    """
    d = window.dim
    (axis,), fixed = integers([axis], "axis"), integers(fixed, "fixed coordinates")
    if not 1 <= axis <= d:
        raise ValueError(f"axis must be in 1..{d}")
    if len(fixed) != d - 1:
        raise ValueError(f"need {d - 1} fixed coordinates, got {len(fixed)}")
    arr, on = _window_points(points, window)
    for x, c in zip(np.delete(arr, axis - 1, axis=1).T, fixed):
        on &= x == c
    return gap_stats(np.sort(arr[on, axis - 1]).tolist())


def section_report(points, window: LatticeWindow) -> list[dict]:
    """Per axis, the largest gap over the window's 1-D sections of `points`
    (0 if none has two points) and how many sections hold fewer than two.

    points are integers (1-D), d-tuples or an (n, d) integer array; those
    outside the window are ignored, and [] leaves every section sparse.  Per
    axis, one sort of a mixed-radix key per point (uint64 below 2^64 cells,
    else Python ints) lines the sections up, and np.diff of the keys gives every gap.
    """
    arr, inside = _window_points(points, window)
    arr, report, sides, d = arr[inside], [], window.side_lengths, window.dim
    low, high = (arr.min(0), arr.max(0)) if len(arr) else np.zeros((2, d), np.int64)
    radix = [b - a + 1 for a, b in zip(low.tolist(), high.tolist())]  # the points' spans + 1
    low = low.astype(np.uint64 if math.prod(radix) < 2 ** 64 else object)  # the keys' type
    for i, r in enumerate(radix):
        key = 0  # the offsets from low, one column at a time, axis i the least significant digit
        for j in (*range(i), *range(i + 1, d), i):
            key = key * radix[j] + (arr[:, j].astype(low.dtype) - low[j])
        key.sort()
        same = np.diff(key // r) == 0  # consecutive points of one section
        full = int(np.count_nonzero(np.diff(same, prepend=False) & same))  # runs of same
        report.append({"axis": i + 1, "max_section_gap": int(np.diff(key)[same].max(initial=0)),
                       "sections_under_two_points": math.prod(sides) // sides[i] - full})
    return report

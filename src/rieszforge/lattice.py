"""Lattice partitions for d-dimensional selection, and their section and covering checks.

The cycling partition splits each aligned r-cube of Z^d into r^(d-1) axis
segments of length r; the segment axis j cycles with the cube through

    j = (k_1 + ... + k_d)/r  mod d      (residue 0 means axis d),

so a one-per-segment selector stays syndetic along every one-dimensional
section, with gaps at most 2*d*r.  The plain cube partition gives selectors
with covering radius at most s*sqrt(d).
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
    "Segment",
    "Cube",
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


@dataclass(frozen=True)
class Segment:
    """Axis-aligned run of r lattice cells inside one cube of the partition."""

    base: tuple[int, ...]
    axis: int  # 1-based
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Cube:
    """One aligned s-cube of the plain cube partition."""

    base: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]


def _aligned_bases(d: int, step: int, window: LatticeWindow, what: str):
    """Validate a partition request; iterate the bases of its aligned cubes."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if step < 1:
        raise ValueError(f"{what} must be >= 1")
    if window.dim != d:
        raise ValueError(f"window dimension {window.dim} != {d}")
    window.require_aligned(step)
    return itertools.product(*(range(a, b + 1, step) for a, b in zip(window.lo, window.hi)))


def cycling_partition(d: int, r: int, window: LatticeWindow) -> tuple[Segment, ...]:
    """Partition the window into axis segments of length r with cycling axes.

    The window must be aligned: every lo coordinate and every side length a
    multiple of r.  Within the cube at base k the segments run along axis
    j(k) = ((k_1+...+k_d)/r mod d, 0 -> d); the remaining coordinates take all
    r^(d-1) offset combinations in order.
    """
    d, r = integers([d, r], "dimension and segment length")
    segments = []
    for base in _aligned_bases(d, r, window, "segment length"):
        residue = (sum(base) // r) % d
        axis = d if residue == 0 else residue
        before = axis - 1
        for offsets in itertools.product(range(r), repeat=d - 1):
            cells = []
            for t in range(r):
                rel = offsets[:before] + (t,) + offsets[before:]
                cells.append(tuple(k + o for k, o in zip(base, rel)))
            segments.append(Segment(base=base, axis=axis, cells=tuple(cells)))
    return tuple(segments)


def cube_partition(d: int, s: int, window: LatticeWindow) -> tuple[Cube, ...]:
    """Partition the window into aligned s-cubes (window must be aligned to s)."""
    d, s = integers([d, s], "dimension and cube side")
    cubes = []
    for base in _aligned_bases(d, s, window, "cube side"):
        cells = tuple(tuple(k + o for k, o in zip(base, rel))
                      for rel in itertools.product(range(s), repeat=d))
        cubes.append(Cube(base=base, cells=cells))
    return tuple(cubes)


def covering_radius(points, window: LatticeWindow) -> float:
    """Largest Euclidean distance from a window lattice point to `points`.

    points are integer points inside the window: tuples of length dim, or
    integers in 1-D.  Exact, as the sqrt of an integer squared distance on a
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
    arr = integer_points(points)
    (n, k), d, sides = arr.shape, window.dim, window.side_lengths
    if k != d:
        raise ValueError(f"points of dimension {k} in a {d}-D window")
    low, high = arr.min(axis=0), arr.max(axis=0)
    if any(int(m) < a or int(h) > b for m, h, a, b in zip(low, high, window.lo, window.hi)):
        p = next(p for p in map(tuple, arr.tolist()) if not window.contains(p))
        raise ValueError(f"point {p} lies outside the window {window.lo}..{window.hi}")
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


def _sections(points, axis: int, window: LatticeWindow) -> dict[tuple, list]:
    """Axis coordinates (1-based axis) of the window's points, grouped by
    their d-1 frozen coordinates; points of the wrong length are skipped."""
    d, i = window.dim, axis - 1
    groups: dict[tuple, list] = {}
    for pt in points:
        if len(pt) == d and window.contains(pt):
            groups.setdefault((*pt[:i], *pt[i + 1:]), []).append(pt[i])
    return groups


def section_gaps(points, axis: int, fixed: tuple[int, ...],
                 window: LatticeWindow) -> GapStats:
    """Gap statistics of the 1-D section of `points` along `axis` (1-based).

    fixed supplies the d-1 frozen coordinates in order (axis coordinate
    omitted).  Points outside the window are ignored.
    """
    d = window.dim
    (axis,), fixed = integers([axis], "axis"), integers(fixed, "fixed coordinates")
    if not 1 <= axis <= d:
        raise ValueError(f"axis must be in 1..{d}")
    if len(fixed) != d - 1:
        raise ValueError(f"need {d - 1} fixed coordinates, got {len(fixed)}")
    return gap_stats(sorted(_sections(points, axis, window).get(fixed, ())))


def section_report(points, window: LatticeWindow) -> list[dict]:
    """Per axis, the largest gap over the window's 1-D sections of `points`
    (0 if none has two points) and how many sections hold fewer than two;
    one grouping pass per axis, O(d*(|points| + W^(d-1)))."""
    report, sides = [], window.side_lengths
    for axis in range(1, window.dim + 1):
        full = [gap_stats(sorted(c)) for c in _sections(points, axis, window).values()
                if len(c) >= 2]
        gap = max((int(st.gamma) for st in full), default=0)
        sparse = math.prod(sides) // sides[axis - 1] - len(full)
        report.append({"axis": axis, "max_section_gap": gap, "sections_under_two_points": sparse})
    return report

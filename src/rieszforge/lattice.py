"""Lattice partitions for d-dimensional selection, and box spectra on the d-torus.

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

from .quadfield import integers
from .quasicrystal import GapStats, gap_stats
from .torus import TWO_PI, interval_coefficient, unit_keyed

__all__ = [
    "LatticeWindow",
    "Segment",
    "Cube",
    "BoxSet",
    "cycling_partition",
    "cube_partition",
    "covering_radius",
    "section_gaps",
    "section_report",
    "indicator_fourier_d",
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
    cubes = []
    for base in _aligned_bases(d, s, window, "cube side"):
        cells = tuple(tuple(k + o for k, o in zip(base, rel))
                      for rel in itertools.product(range(s), repeat=d))
        cubes.append(Cube(base=base, cells=cells))
    return tuple(cubes)


def covering_radius(points, window: LatticeWindow) -> float:
    """Largest Euclidean distance from a window lattice point to `points`."""
    pts = np.asarray(list(points), dtype=float)
    if pts.size == 0:
        raise ValueError("empty point set")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != window.dim:
        raise ValueError(f"points of dimension {pts.shape[1]} in a {window.dim}-D window")
    targets = np.array(list(window.points()), dtype=float)
    # imported here: scipy.spatial adds about 37 MB of resident memory and
    # 0.1 s of start-up that only this function needs
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(pts).query(targets)
    return float(dist.max())


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
    if not 1 <= axis <= d:
        raise ValueError(f"axis must be in 1..{d}")
    if len(fixed) != d - 1:
        raise ValueError(f"need {d - 1} fixed coordinates, got {len(fixed)}")
    return gap_stats(sorted(_sections(points, axis, window).get(tuple(fixed), ())))


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


@dataclass(frozen=True)
class BoxSet:
    """Disjoint union of axis-aligned boxes inside the d-torus [0, 2*pi)^d.

    boxes is a tuple of per-box tuples of (lo, hi) pairs, one pair per axis.
    Boxes must have positive volume and pairwise disjoint interiors; no
    wrap-around reduction is applied in higher dimension.
    """

    boxes: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self):
        boxes = tuple(tuple((float(lo), float(hi)) for lo, hi in box) for box in self.boxes)
        if not boxes:
            raise ValueError("empty box list")
        d = len(boxes[0])
        for box in boxes:
            if len(box) != d:
                raise ValueError("boxes must share one dimension")
            for lo, hi in box:
                if not (0.0 <= lo < hi <= TWO_PI + 1e-12):
                    raise ValueError(f"box side ({lo}, {hi}) outside [0, 2*pi]")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if all(lo1 < hi2 - 1e-12 and lo2 < hi1 - 1e-12
                       for (lo1, hi1), (lo2, hi2) in zip(boxes[i], boxes[j])):
                    raise ValueError(f"boxes {i} and {j} overlap")
        object.__setattr__(self, "boxes", boxes)

    @property
    def dim(self) -> int:
        return len(self.boxes[0])

    @property
    def measure(self) -> float:
        return sum(math.prod(hi - lo for lo, hi in box) for box in self.boxes)

    @property
    def fraction_of_torus(self) -> float:
        return self.measure / self.total_volume

    @property
    def total_volume(self) -> float:
        return TWO_PI ** self.dim

    def fourier_coefficient(self, m) -> complex:
        return indicator_fourier_d(self, m)

    def to_json(self) -> dict:
        return {"boxes_rad": [[[lo, hi] for lo, hi in box] for box in self.boxes]}

    @classmethod
    def from_json(cls, obj) -> "BoxSet":
        """Parse {"boxes_rad": ...}, {"boxes_2pi": ...} or a bare list of boxes."""
        unit, raw = unit_keyed(obj, "boxes")
        scale = TWO_PI if unit == "2pi" else 1.0
        try:
            boxes = tuple(tuple((lo * scale, hi * scale) for lo, hi in box) for box in raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("boxes must be lists of [lo, hi] number pairs") from None
        return cls(boxes=boxes)


def indicator_fourier_d(s: BoxSet, m: tuple[int, ...]) -> complex:
    """Fourier coefficient of the box-set indicator at the integer vector m.

    Separable per box: the product of one-dimensional interval coefficients,
    each conjugate-symmetric bit-for-bit, so c(-m) == conj(c(m)) is exact.
    """
    m = integers(m, "frequency vector")
    if len(m) != s.dim:
        raise ValueError(f"frequency vector of length {len(m)} for a {s.dim}-D set")
    total = 0j
    for box in s.boxes:
        term = complex(1.0)
        for (lo, hi), mi in zip(box, m):
            term *= interval_coefficient(lo, hi, mi)
        total += term
    return total

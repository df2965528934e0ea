"""Spectra on the torus: multiband sets, finite unions of half-open arcs
[start, end) of [0, 2*pi), and box sets in [0, 2*pi)^d.  The Fourier
coefficients of their indicators, which populate every Gram matrix of an
exponential system on the set, all come from one box kernel (an arc is a 1-D box):

    c(m) = integral_S exp(-i*<m, t>) dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadfield import integers

__all__ = [
    "TWO_PI",
    "Arc",
    "MultibandSet",
    "BoxSet",
    "normalize_bands",
]

TWO_PI = 2.0 * math.pi

# arcs shorter than this are rejected as degenerate; gaps shorter than this
# are treated as rounding artifacts and merged away
MIN_ARC = 1e-12

# spectrum units: radians, or fractions of the full circle
RADIANS_PER_UNIT = {"rad": 1.0, "2pi": TWO_PI}


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, end) with 0 <= start < end <= 2*pi."""

    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class MultibandSet:
    """Canonical finite union of arcs: sorted, disjoint, non-adjacent.

    Build instances through :func:`normalize_bands`; the constructor trusts
    its input.
    """

    arcs: tuple[Arc, ...]
    measure: float

    @property
    def fraction_of_torus(self) -> float:
        return self.measure / TWO_PI

    def is_arc(self) -> bool:
        """One arc on the circle: one arc, or the two pieces normalize_bands
        leaves of an arc across 0 (their gap across 0 at most MIN_ARC)."""
        a = self.arcs
        return len(a) == 1 or (len(a) == 2 and a[0].start + (TWO_PI - a[1].end) <= MIN_ARC)

    def fourier_coefficient(self, m):
        return _box_coefficients(tuple(((a.start, a.end),) for a in self.arcs), m)

    @property
    def total_volume(self) -> float:
        """Volume of the ambient torus (normalization constant for Grams)."""
        return TWO_PI

    def translate(self, t0: float) -> "MultibandSet":
        """Shift every arc by t0 (mod 2*pi) and re-canonicalize."""
        return normalize_bands([(a.start + t0, a.end + t0) for a in self.arcs])

    def to_json(self) -> dict:
        return {"bands_rad": [[a.start, a.end] for a in self.arcs]}

    @classmethod
    def from_json(cls, obj) -> "MultibandSet":
        """Parse {"bands_rad": [[a,b],...]}, {"bands_2pi": ...} or a bare pair list."""
        unit, bands = unit_keyed(obj, "bands")
        return normalize_bands(bands, unit=unit)


@dataclass(frozen=True)
class BoxSet:
    """Disjoint union of axis-aligned boxes inside the d-torus [0, 2*pi)^d.

    boxes is a tuple of per-box tuples of (lo, hi) pairs, one pair per axis.
    Boxes must have positive volume and pairwise disjoint interiors; no
    wrap-around reduction is applied in higher dimension.
    """

    boxes: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self):
        boxes = tuple(tuple((_endpoint(lo), _endpoint(hi)) for lo, hi in box) for box in self.boxes)
        if not boxes:
            raise ValueError("empty box list")
        d = len(boxes[0])
        for box in boxes:
            if len(box) != d:
                raise ValueError("boxes must share one dimension")
            for lo, hi in box:
                if not (0.0 <= lo < hi <= TWO_PI + MIN_ARC):
                    raise ValueError(f"box side ({lo}, {hi}) outside [0, 2*pi]")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if all(lo1 < hi2 - MIN_ARC and lo2 < hi1 - MIN_ARC
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

    def fourier_coefficient(self, m):
        return _box_coefficients(self.boxes, m)

    def to_json(self) -> dict:
        return {"boxes_rad": [[[lo, hi] for lo, hi in box] for box in self.boxes]}

    @classmethod
    def from_json(cls, obj) -> "BoxSet":
        """Parse {"boxes_rad": ...}, {"boxes_2pi": ...} or a bare list of boxes."""
        unit, raw = unit_keyed(obj, "boxes")
        scale = RADIANS_PER_UNIT[unit]
        try:
            boxes = tuple(tuple((_endpoint(lo) * scale, _endpoint(hi) * scale) for lo, hi in box)
                          for box in raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("boxes must be lists of [lo, hi] number pairs") from None
        return cls(boxes=boxes)


def unit_keyed(obj, stem: str) -> tuple[str, object]:
    """(unit, value) of spectrum JSON: an object carries exactly one of
    `<stem>_rad` and `<stem>_2pi`; a bare value is in fractions of 2*pi ("2pi")."""
    if not isinstance(obj, dict):
        return "2pi", obj
    given = [unit for unit in RADIANS_PER_UNIT if f"{stem}_{unit}" in obj]
    if len(given) != 1:
        raise ValueError(f"expected exactly one of '{stem}_rad' / '{stem}_2pi', got {sorted(obj)}")
    return given[0], obj[f"{stem}_{given[0]}"]


def _endpoint(x) -> float:
    """A band or box endpoint as a float.  It must be a number (int, float, numpy
    number, Fraction): float() also takes bools and numeric strings, refused here."""
    if isinstance(x, (str, bytes)) or type(x).__name__ == "bool":  # also numpy.bool
        raise ValueError(f"endpoints must be numbers, got {x!r}")
    return float(x)


def normalize_bands(bands, unit: str = "rad") -> MultibandSet:
    """Canonicalize raw (start, end) pairs into a MultibandSet.

    Each pair must satisfy start < end with 0 < end-start <= 2*pi; arcs are
    reduced mod 2*pi (splitting at 0 when they wrap), sorted, and overlapping
    or adjacent arcs are merged.  unit is "rad" for radians or "2pi" for
    fractions of the full circle.
    """
    try:
        scale = RADIANS_PER_UNIT[unit]
    except (KeyError, TypeError):
        raise ValueError(f"unit must be 'rad' or '2pi', got {unit!r}") from None
    try:
        pairs = [(_endpoint(lo) * scale, _endpoint(hi) * scale) for lo, hi in bands]
    except (TypeError, ValueError, OverflowError):
        raise ValueError("bands must be a list of [start, end] number pairs") from None
    if not pairs:
        raise ValueError("empty band list")

    pieces: list[tuple[float, float]] = []
    for lo, hi in pairs:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"band ({lo}, {hi}) has a non-finite endpoint")
        length = hi - lo
        if length < MIN_ARC:
            raise ValueError(f"band ({lo}, {hi}) is empty or reversed")
        if length > TWO_PI + MIN_ARC:
            raise ValueError(f"band ({lo}, {hi}) is longer than the torus")
        lo_mod = math.fmod(lo, TWO_PI)
        if lo_mod < 0.0:
            lo_mod += TWO_PI
        if lo_mod >= TWO_PI:
            lo_mod = 0.0
        hi_mod = lo_mod + length
        if hi_mod <= TWO_PI:
            pieces.append((lo_mod, hi_mod))
        else:
            pieces.append((lo_mod, TWO_PI))
            pieces.append((0.0, hi_mod - TWO_PI))

    pieces.sort()
    merged = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1] + MIN_ARC:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    arcs = tuple(Arc(lo, hi) for lo, hi in merged)
    measure = sum(a.length for a in arcs)
    if measure >= TWO_PI - MIN_ARC:
        return MultibandSet(arcs=(Arc(0.0, TWO_PI),), measure=TWO_PI)
    return MultibandSet(arcs=arcs, measure=measure)


# not in __all__: perfbench's tracer wraps every __all__ function in a span, and
# these run once per coefficient table chunk, or per arc or box side of a chunk
def _box_coefficients(boxes, m) -> np.ndarray:
    """Indicator coefficients of a union of boxes, each one (lo, hi) pair per axis,
    at each row of a (k, d) integer array m: the sum over boxes of the product of
    the sides' interval coefficients, in CPython's real arithmetic (numpy's complex
    product varies by SIMD level), so c(-m) == conj(c(m)) bit-for-bit, as per side."""
    if not (isinstance(m, np.ndarray) and m.dtype.kind in "iu"):  # np.array takes bools, "3"
        integers(np.asarray(m, dtype=object).ravel(), "frequencies")
    f, d = np.array(m, dtype=float), len(boxes[0])
    if f.ndim != 2 or f.shape[1] != d:
        raise ValueError(f"frequencies of shape {f.shape} for a {d}-D set: need (k, {d})")
    total = np.zeros(len(f), complex)
    for box in boxes:
        re, im = np.ones(len(f)), np.zeros(len(f))
        for (lo, hi), fi in zip(box, f.T):
            c = interval_coefficient(lo, hi, fi)
            re, im = re * c.real - im * c.imag, re * c.imag + im * c.real
        total.real += re
        total.imag += im
    return total


def interval_coefficient(lo: float, hi: float, m):
    """integral over [lo, hi) of exp(-i*m*t) dt, elementwise over an integer array m.

    c(0) is the length; negative m take the conjugate of c(|m|), so that
    c(-m) == conj(c(m)) holds bit-for-bit, keeping Gram matrices exactly
    Hermitian in every dimension.  The quotient by 1j*m is CPython's real Smith
    division, so each value has the bits of the scalar cmath formula.  m is
    used only as float(m), so ints beyond int64 work too.
    """
    f = np.asarray(m, dtype=float)
    a = np.abs(f)
    d = np.exp(-1j * (a * lo)) - np.exp(-1j * (a * hi))
    c = np.full(a.shape, complex(hi - lo))
    np.divide(d.real * 0.0 + d.imag, a, out=c.real, where=a != 0)
    np.divide(d.imag * 0.0 - d.real, a, out=c.imag, where=a != 0)
    np.negative(c.imag, out=c.imag, where=f < 0)
    return c


def centered_interval_coefficient(length: float, m):
    """integral over [-length/2, length/2) of exp(-i*m*t) dt = 2*sin(m*length/2)/m,
    elementwise as interval_coefficient: real, even in m, and exp(i*m*mid) times
    the coefficient of any arc of this length with midpoint mid."""
    f = np.asarray(m, dtype=float)
    r = np.full(f.shape, float(length))
    np.divide(2.0 * np.sin(f * length / 2.0), f, out=r, where=f != 0)
    return r

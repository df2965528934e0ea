"""Multiband subsets of the torus [0, 2*pi) and their indicator Fourier coefficients.

A multiband set is a finite union of half-open arcs [start, end).  The Fourier
coefficients of its indicator are what populate every Gram matrix of an
exponential system restricted to the set, via

    c(m) = integral_S exp(-i*m*t) dt.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "TWO_PI",
    "Arc",
    "MultibandSet",
    "normalize_bands",
    "complement",
    "indicator_fourier",
]

TWO_PI = 2.0 * math.pi

# arcs shorter than this are rejected as degenerate; gaps shorter than this
# are treated as rounding artifacts and merged away
MIN_ARC = 1e-12


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

    def is_full(self) -> bool:
        return self.measure >= TWO_PI - MIN_ARC

    def fourier_coefficient(self, m: int) -> complex:
        return indicator_fourier(self, m)

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
    def from_json(cls, obj: dict) -> "MultibandSet":
        """Parse {"bands_rad": [[a,b],...]} or {"bands_2pi": [[a,b],...]}."""
        if "bands_rad" in obj:
            return normalize_bands(obj["bands_rad"], unit="rad")
        if "bands_2pi" in obj:
            return normalize_bands(obj["bands_2pi"], unit="2pi")
        raise ValueError(f"expected 'bands_rad' or 'bands_2pi' key, got {sorted(obj)}")


def normalize_bands(bands, unit: str = "rad") -> MultibandSet:
    """Canonicalize raw (start, end) pairs into a MultibandSet.

    Each pair must satisfy start < end with 0 < end-start <= 2*pi; arcs are
    reduced mod 2*pi (splitting at 0 when they wrap), sorted, and overlapping
    or adjacent arcs are merged.  unit is "rad" for radians or "2pi" for
    fractions of the full circle.
    """
    if unit == "rad":
        scale = 1.0
    elif unit == "2pi":
        scale = TWO_PI
    else:
        raise ValueError(f"unit must be 'rad' or '2pi', got {unit!r}")

    try:
        pairs = [(float(lo) * scale, float(hi) * scale) for lo, hi in bands]
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
        if length >= TWO_PI - MIN_ARC:
            return MultibandSet(arcs=(Arc(0.0, TWO_PI),), measure=TWO_PI)
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


def complement(s: MultibandSet) -> MultibandSet:
    """Closure of the complementary arcs; raises on the full torus."""
    if s.is_full():
        raise ValueError("complement of the full torus is empty")
    gaps = []
    prev_end = 0.0
    for a in s.arcs:
        if a.start > prev_end + MIN_ARC:
            gaps.append((prev_end, a.start))
        prev_end = a.end
    if prev_end < TWO_PI - MIN_ARC:
        gaps.append((prev_end, TWO_PI))
    if not gaps:
        raise ValueError("complement of the full torus is empty")
    arcs = tuple(Arc(lo, hi) for lo, hi in gaps)
    return MultibandSet(arcs=arcs, measure=sum(a.length for a in arcs))


# not in __all__: perfbench's tracer wraps every __all__ function in a span,
# and this one runs once per arc or box side of every coefficient
def interval_coefficient(lo: float, hi: float, m: int) -> complex:
    """integral over [lo, hi) of exp(-i*m*t) dt.

    c(0) is the length; negative m are produced by conjugation so that
    c(-m) == conj(c(m)) holds bit-for-bit, keeping Gram matrices exactly
    Hermitian in every dimension.
    """
    if m == 0:
        return complex(hi - lo)
    if m < 0:
        return interval_coefficient(lo, hi, -m).conjugate()
    return (cmath.exp(-1j * m * lo) - cmath.exp(-1j * m * hi)) / (1j * m)


def indicator_fourier(s: MultibandSet, m: int) -> complex:
    """Fourier coefficient c(m) of the indicator of s: the sum of its arcs'
    interval coefficients."""
    return sum(interval_coefficient(a.start, a.end, m) for a in s.arcs)

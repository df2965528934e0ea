"""Simple quasicrystals: integer sets {n : frac(alpha*n) in I} and their statistics.

The two construction regimes (after the measure of the target spectrum):

* small mode, s_norm <= 1/2 (or forced): pick n with 1/n < s_norm <= 1/(n-1),
  an irrational a in (1/n, min(s_norm, 1/(n-1))) and alpha = (1-a)/(n-1) < a.
  The set {n : frac(alpha*n) in [0, a)} has consecutive gaps in {1, n} and
  density a < s_norm.
* large mode, s_norm > 1/2: pick n with 1-1/n < s_norm <= 1-1/(n+1), an
  irrational a in (max(1/(n+1), 1-s_norm), 1/n) and the same alpha, which now
  satisfies alpha > a.  The set {n : frac(alpha*n) in [a, 1)} has density
  1-a < s_norm and its complement is uniformly separated with gaps >= n.

Membership is decided by integer brackets built from exact floors in
Q(sqrt(D)); the rare integers a bracket cannot settle are decided by exact
QuadNum comparison, so generated sets are exactly those of exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadfield import QuadNum, integers
from .torus import MultibandSet

__all__ = [
    "UnitInterval",
    "QCParams",
    "PointSet",
    "GapStats",
    "DensityStats",
    "generate",
    "generate_centered",
    "choose_params",
    "construct_riesz_set",
    "gap_stats",
    "density_stats",
    "kahane_classify",
]

@dataclass(frozen=True)
class UnitInterval:
    """Half-open interval [lo, hi) with exact endpoints, 0 <= lo < hi <= 1.

    A rational end is stored as QuadNum(x), which adopts the other operand's
    radicand in every operation.
    """

    lo: QuadNum
    hi: QuadNum

    def __post_init__(self):
        for end, x in (("lo", self.lo), ("hi", self.hi)):
            if not isinstance(x, QuadNum):
                object.__setattr__(self, end, QuadNum(x))
        if self.lo < 0 or self.hi > 1:
            raise ValueError("interval must lie inside [0, 1]")
        if self.hi <= self.lo:
            raise ValueError("interval must have positive length")

    @property
    def length(self) -> QuadNum:
        return self.hi - self.lo


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing integers observed inside an inclusive window."""

    elements: tuple[int, ...]
    window: tuple[int, int]

    def __post_init__(self):
        if len(window := integers(self.window, "window")) != 2:
            raise ValueError(f"window must be two integers, got {self.window!r}")
        n0, n1 = window
        if n0 > n1:
            raise ValueError(f"window {window} is reversed")
        object.__setattr__(self, "window", window)
        prev = n0 - 1
        for x in self.elements:
            if type(x) is not int:  # convert every element once, then check the ints
                object.__setattr__(self, "elements", integers(self.elements, "points"))
                return self.__post_init__()
            if not n0 <= x <= n1:
                raise ValueError(f"element {x} outside window {window}")
            if x <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = x

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def span(self) -> int:
        return self.window[1] - self.window[0] + 1

    @property
    def density(self) -> float:
        return len(self.elements) / self.span

    def complement_in_window(self) -> "PointSet":
        inside = set(self.elements)
        rest = tuple(n for n in range(self.window[0], self.window[1] + 1) if n not in inside)
        return PointSet(elements=rest, window=self.window)

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "window": list(self.window)}

    @classmethod
    def from_json(cls, obj: dict) -> "PointSet":
        if missing := sorted({"elements", "window"} - set(obj)):
            raise ValueError(f"a points object needs 'elements' and 'window', missing {missing}")
        return cls(elements=integers(obj["elements"], "points"), window=obj["window"])


@dataclass(frozen=True)
class GapStats:
    """Consecutive differences; gamma is the largest (inf if under 2 points)."""

    gaps: tuple[int, ...]
    gamma: float
    min_gap: float

    def to_json(self) -> dict:
        values = sorted(set(self.gaps))
        return {"gap_values": values, "gamma": self.gamma, "min_gap": self.min_gap,
                "count": len(self.gaps)}


@dataclass(frozen=True)
class DensityStats:
    """Sliding-window densities at resolution window_r, plus the global rate."""

    upper: float
    lower: float
    asymptotic: float
    window_r: int

    def to_json(self) -> dict:
        return {"upper": self.upper, "lower": self.lower,
                "asymptotic": self.asymptotic, "window_r": self.window_r}

    def within_landau(self, spectrum: MultibandSet) -> bool:
        """Landau's necessary condition: upper density at most |S|/2pi + 0.02."""
        return self.upper <= spectrum.fraction_of_torus + 0.02


@dataclass(frozen=True)
class QCParams:
    """Parameters of a constructed quasicrystal.

    The Riesz set is generate(alpha, riesz_interval, window), with
    riesz_interval = [0, a) in small mode and [a, 1) in large mode.
    """

    mode: str
    n: int
    a: QuadNum
    alpha: QuadNum
    riesz_interval: UnitInterval
    s_norm: float

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "a": self.a.to_json(),
            "alpha": self.alpha.to_json(),
            "a_float": float(self.a),
            "alpha_float": float(self.alpha),
            "s_norm": self.s_norm,
        }


def generate(alpha: QuadNum, interval: UnitInterval, window: tuple[int, int]) -> PointSet:
    """All n in the inclusive window with frac(alpha*n) in [interval.lo, interval.hi).

    alpha must be irrational with 0 < alpha < 1, and the window ends must be
    integers.  Membership is decided in int64 fixed point: the exact floors
    s, a, lo and hi of frac(alpha*n0), alpha, interval.lo and interval.hi
    times one = 2**b give each k = n - n0 an integer bracket [u, u + k + 1)
    holding frac(alpha*n) * one.  An integer whose bracket lies inside [lo, hi)
    or clear of it is decided there, the few others by the exact QuadNum
    comparison interval.lo <= frac(alpha*n) < interval.hi, so the result
    equals the exact one.
    """
    if not isinstance(alpha, QuadNum) or alpha.q == 0:
        raise ValueError("alpha must be an irrational QuadNum")
    if not 0 < alpha < 1:
        raise ValueError("alpha must satisfy 0 < alpha < 1")
    n0, n1 = PointSet(elements=(), window=window).window  # refuses n0 > n1 up front
    for end in (interval.lo, interval.hi):
        end - alpha  # an end from another field raises here, before anything is allocated

    # s + a*k <= (frac(alpha*n0) + alpha*k) * one < s + a*k + k + 1, so the
    # bracket holds unless top passes one; b keeps a*k < 2**62, inside int64
    size = n1 - n0 + 1
    one = 1 << (62 - size.bit_length())
    s, a, lo, hi = (math.floor(x * one) for x in
                    ((alpha * n0).frac_mod1(), alpha, interval.lo, interval.hi))
    k = np.arange(size, dtype=np.int64)
    u = (s + a * k) % one
    top = u + k + 1
    member = (u > lo) & (top <= hi)
    unsure = ~member & (top > lo) & ((u <= hi) | (top > one))
    for i in np.flatnonzero(unsure).tolist():
        member[i] = interval.lo <= (alpha * (n0 + i)).frac_mod1() < interval.hi
    elements = tuple(n0 + i for i in np.flatnonzero(member).tolist())
    return PointSet(elements=elements, window=(n0, n1))


def generate_centered(alpha: QuadNum, interval: UnitInterval, count: int) -> PointSet:
    """Grow a symmetric window [-H, H] until it holds at least count elements."""
    (count,) = integers([count], "count")
    if count < 1:
        raise ValueError("count must be positive")
    half = max(8, int(count / float(interval.length) / 2) + 4)
    for _ in range(40):
        ps = generate(alpha, interval, (-half, half))
        if len(ps) >= count:
            return ps
        half *= 2
    raise RuntimeError("window growth failed; interval density too low?")


def choose_params(s_norm: float, mode: str = "auto") -> QCParams:
    """Pick the regime, gap parameter n, and exact irrationals a and alpha.

    s_norm is the target spectrum's measure divided by 2*pi.  The regime
    index n is computed from a denominator-limited rational snap of s_norm,
    so that values like 0.8 sit on their intended boundary despite float
    representation error; the admissible interval for a still uses the exact
    value of s_norm, and a is verified inside it in exact arithmetic.
    """
    if not 0.0 < s_norm < 1.0:
        raise ValueError(f"s_norm must be in (0, 1), got {s_norm}")
    if mode not in ("auto", "small", "large"):
        raise ValueError(f"mode must be auto, small or large, got {mode!r}")

    exact = Fraction(s_norm)
    snapped = exact.limit_denominator(10**6)
    if not 0 < snapped < 1:
        raise ValueError(f"s_norm={s_norm!r} is too close to 0 or 1 to pick a regime")
    if mode == "auto":
        mode = "small" if snapped <= Fraction(1, 2) else "large"
    if mode == "large" and snapped <= Fraction(1, 2):
        raise ValueError("large mode requires s_norm > 1/2")

    if mode == "small":
        n = int(1 / snapped) + 1
        lower = Fraction(1, n)
        upper = min(exact, Fraction(1, n - 1))
    else:
        tail = 1 - snapped
        recip = 1 / tail
        n = int(recip) - 1 if recip.denominator == 1 else int(recip)
        lower = max(Fraction(1, n + 1), 1 - exact)
        upper = Fraction(1, n)
    if not lower < upper:
        raise ValueError(f"s_norm={s_norm!r} is degenerately close to a regime boundary")

    a = _pick_irrational(lower, upper)
    alpha = (1 - a) / (n - 1)
    if mode == "small" and not alpha < a:
        raise RuntimeError("construction invariant alpha < a failed")
    if mode == "large" and not alpha > a:
        raise RuntimeError("construction invariant alpha > a failed")
    if not 0 < alpha < 1:
        raise RuntimeError("construction invariant 0 < alpha < 1 failed")

    interval = UnitInterval(0, a) if mode == "small" else UnitInterval(a, 1)
    return QCParams(mode=mode, n=n, a=a, alpha=alpha, riesz_interval=interval, s_norm=s_norm)


def _pick_irrational(lower: Fraction, upper: Fraction) -> QuadNum:
    """Deterministic irrational in (lower, upper): midpoint + sqrt(2)/2^k.

    k is the smallest integer with sqrt(2)/2^k < (upper-lower)/4, decided
    exactly via 4^k > 32/length^2, so the perturbed midpoint stays strictly
    inside the open interval.
    """
    length = upper - lower
    mid = (lower + upper) / 2
    bound = 32 / (length * length)
    k = 0
    power = Fraction(1)
    while power <= bound:
        power *= 4
        k += 1
    a = QuadNum(mid, Fraction(1, 2**k), 2)
    if not lower < a < upper:
        raise RuntimeError("perturbed midpoint escaped its interval")
    return a


def construct_riesz_set(spectrum: MultibandSet, window: tuple[int, int],
                        mode: str = "auto") -> tuple[QCParams, PointSet]:
    """Convenience: choose parameters for the spectrum and generate the set."""
    params = choose_params(spectrum.fraction_of_torus, mode)
    points = generate(params.alpha, params.riesz_interval, window)
    return params, points


def gap_stats(points) -> GapStats:
    """Gap statistics of a PointSet or sorted integer sequence."""
    elems = tuple(points)
    if len(elems) < 2:
        return GapStats(gaps=(), gamma=math.inf, min_gap=math.inf)
    gaps = tuple(b - a for a, b in zip(elems, elems[1:]))
    return GapStats(gaps=gaps, gamma=max(gaps), min_gap=min(gaps))


def density_stats(points: PointSet) -> DensityStats:
    """Extreme densities over all sub-windows of window_r = min(1000,
    points.span) integers, plus the global rate."""
    n0, n1 = points.window
    span = n1 - n0 + 1
    window_r = min(1000, span)
    # offsets from the window start fit in int64 wherever the window lies; an empty
    # set stays a tuple, as numpy's empty float array cannot take n0 past float range
    offsets = np.asarray(points.elements) - n0 if len(points) else ()
    elems = np.asarray(offsets, dtype=np.int64)
    starts = np.arange(span - window_r + 1, dtype=np.int64)
    hi_counts = np.searchsorted(elems, starts + window_r, side="left")
    lo_counts = np.searchsorted(elems, starts, side="left")
    counts = hi_counts - lo_counts
    return DensityStats(
        upper=float(counts.max()) / window_r,
        lower=float(counts.min()) / window_r,
        asymptotic=len(elems) / span,
        window_r=window_r,
    )


def kahane_classify(step: int, spectrum: MultibandSet) -> str:
    """Classify the arithmetic progression step*Z against a single-arc spectrum.

    Returns "riesz" when 1/step < |S|/2pi, "not_riesz" when 1/step > |S|/2pi,
    and "critical" on the boundary, where the dichotomy is silent.
    """
    (step,) = integers([step], "step")
    if step < 1:
        raise ValueError("step must be a positive integer")
    if not spectrum.is_arc():
        raise ValueError("the dichotomy applies to a single arc")
    ratio = spectrum.fraction_of_torus
    gap = 1.0 / step
    if abs(ratio - gap) < 1e-12:
        return "critical"
    return "riesz" if gap < ratio else "not_riesz"

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

Membership is decided by a float64 filter whose error is bounded rigorously;
the rare integers the bound cannot settle fall back to exact Q(sqrt(D))
arithmetic, so generated sets are exactly those of exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadfield import QuadNum, integers, quad_sign
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
    "landau_check",
    "kahane_classify",
]

_EPS = float(np.finfo(float).eps)


def _as_quad(x, d: int) -> QuadNum:
    if isinstance(x, QuadNum):
        return x
    return QuadNum(Fraction(x), 0, d)


class UnitInterval:
    """Half-open interval [lo, hi) with exact endpoints, 0 <= lo < hi <= 1."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        d = 2
        if isinstance(lo, QuadNum):
            d = lo.D
        elif isinstance(hi, QuadNum):
            d = hi.D
        self.lo = _as_quad(lo, d)
        self.hi = _as_quad(hi, d)
        if self.lo.sign() < 0 or (self.hi - 1).sign() > 0:
            raise ValueError("interval must lie inside [0, 1]")
        if (self.hi - self.lo).sign() <= 0:
            raise ValueError("interval must have positive length")

    @property
    def length(self) -> QuadNum:
        return self.hi - self.lo

    def __eq__(self, other):
        return isinstance(other, UnitInterval) and self.lo == other.lo and self.hi == other.hi

    def __repr__(self):
        return f"UnitInterval({self.lo!r}, {self.hi!r})"


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing integers observed inside an inclusive window."""

    elements: tuple[int, ...]
    window: tuple[int, int]

    def __post_init__(self):
        n0, n1 = window = integers(self.window, "window")
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
    integers.  Membership is decided by a float filter with a certified error
    bound: the orbit frac(s + alpha*k), with s = frac(alpha*n0) taken exactly
    and k = n - n0, is computed in float64 together with a rigorous bound on
    its error.  An integer whose float orbit lies farther than that bound
    from interval.lo, interval.hi, 0 and 1 is decided by the float; the few
    others (all of them when a float overflows) are decided by exact sign
    tests in Q(sqrt(D)).  The result equals the exact one.
    """
    if not isinstance(alpha, QuadNum) or alpha.q == 0:
        raise ValueError("alpha must be an irrational QuadNum")
    if alpha.sign() <= 0 or (alpha - 1).sign() >= 0:
        raise ValueError("alpha must satisfy 0 < alpha < 1")
    n0, n1 = integers(window, "window ends")  # PointSet below rejects n0 > n1

    d = alpha.D
    lp, lq = _aligned_pair(interval.lo, d, "interval.lo")
    hp, hq = _aligned_pair(interval.hi, d, "interval.hi")
    start = (alpha * n0).frac_mod1()

    # t = fl(s + fl(a*k)) is off from s + alpha*k by at most
    # s_err + k*a_err + u*(1 + 2k), with u = eps/2 and s, a <= 1.  err doubles
    # each term, which also covers the rounding of err and of f - edge below.
    # f = t - floor(t) is exact for t >= 0; a t just below 0 gives f near 1,
    # which the bound marks unsure.
    s, s_err = _float_with_error(start.p, start.q, d)
    a, a_err = _float_with_error(alpha.p, alpha.q, d)
    k = np.arange(n1 - n0 + 1, dtype=float)
    t = s + a * k
    f = t - np.floor(t)
    err = (2 * s_err + 8 * _EPS) + (2 * a_err + 8 * _EPS) * k

    lo, lo_err = _float_with_error(lp, lq, d)
    hi, hi_err = _float_with_error(hp, hq, d)
    member = (f >= lo) & (f < hi)
    # written as "not clearly apart", so a NaN or an infinite bound is unsure
    unsure = np.zeros(len(f), dtype=bool)
    for edge, edge_err in ((lo, lo_err), (hi, hi_err), (0.0, 0.0), (1.0, 0.0)):
        unsure |= ~(np.abs(f - edge) > err + edge_err)
    for i in np.flatnonzero(unsure).tolist():
        x = (alpha * (n0 + i)).frac_mod1()
        member[i] = quad_sign(x.p - lp, x.q - lq, d) >= 0 and \
            quad_sign(x.p - hp, x.q - hq, d) < 0
    elements = tuple(n0 + i for i in np.flatnonzero(member).tolist())
    return PointSet(elements=elements, window=(n0, n1))


def _float_with_error(p: Fraction, q: Fraction, d: int) -> tuple[float, float]:
    """float(p + q*sqrt(d)) and a bound on its absolute error (inf on overflow).

    The sum of correctly rounded float(p), float(q) and sqrt(d), one multiply
    and one add is off by at most 2u|p| + 4u|q|sqrt(d) to first order, with
    u = eps/2; 4*eps bounds that with room to spare.
    """
    try:
        fp, fq = float(p), float(q)
    except OverflowError:
        return math.inf, math.inf
    root = math.sqrt(d)
    return fp + fq * root, 4 * _EPS * (abs(fp) + abs(fq) * root)


def _aligned_pair(x: QuadNum, d: int, what: str) -> tuple[Fraction, Fraction]:
    if x.q == 0:
        return x.p, Fraction(0)
    if x.D != d:
        raise ValueError(f"{what} has radicand {x.D}, alpha has {d}")
    return x.p, x.q


def generate_centered(alpha: QuadNum, interval: UnitInterval, count: int) -> PointSet:
    """Grow a symmetric window [-H, H] until it holds at least count elements."""
    if count < 1:
        raise ValueError("count must be positive")
    density = max(float(interval.length), 1e-3)
    half = max(8, int(count / density / 2) + 4)
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
    if mode == "small":
        if (a - alpha).sign() <= 0:
            raise RuntimeError("construction invariant alpha < a failed")
    else:
        if (alpha - a).sign() <= 0:
            raise RuntimeError("construction invariant alpha > a failed")
    if alpha.sign() <= 0 or (alpha - 1).sign() >= 0:
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
    if (a - lower).sign() <= 0 or (a - upper).sign() >= 0:
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
    elems = np.asarray(points.elements, dtype=np.int64)
    starts = np.arange(n0, n1 - window_r + 2, dtype=np.int64)
    hi_counts = np.searchsorted(elems, starts + window_r, side="left")
    lo_counts = np.searchsorted(elems, starts, side="left")
    counts = hi_counts - lo_counts
    return DensityStats(
        upper=float(counts.max()) / window_r,
        lower=float(counts.min()) / window_r,
        asymptotic=len(elems) / span,
        window_r=window_r,
    )


def landau_check(points: PointSet, spectrum: MultibandSet) -> bool:
    """Necessary-condition check: the upper density of density_stats is at
    most |S|/2pi + 0.02."""
    return density_stats(points).upper <= spectrum.fraction_of_torus + 0.02


def kahane_classify(step: int, spectrum: MultibandSet) -> str:
    """Classify the arithmetic progression step*Z against a single-arc spectrum.

    Returns "riesz" when 1/step < |S|/2pi, "not_riesz" when 1/step > |S|/2pi,
    and "critical" on the boundary, where the dichotomy is silent.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if len(spectrum.arcs) != 1:
        raise ValueError("the dichotomy applies to a single arc")
    ratio = spectrum.fraction_of_torus
    gap = 1.0 / step
    if abs(ratio - gap) < 1e-12:
        return "critical"
    return "riesz" if gap < ratio else "not_riesz"

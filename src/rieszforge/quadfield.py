"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

Numbers are stored as p + q*sqrt(D) with exact rational p, q and a fixed
square-free radicand D, so sign tests, floors and fractional parts of
irrational multiples never go through floating point.  This is what makes
quasicrystal membership tests ({alpha*n} in [lo, hi)) exact: every decision
reduces to comparing integers.  A floor is one integer square root, so its
cost grows with the digits of p and q, not with their size.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

__all__ = ["QuadNum", "quad_sign"]

_RationalLike = (int, Fraction)


# not in __all__, whose functions perfbench's tracer wraps: every boundary calls it
def integers(values, what: str) -> tuple[int, ...]:
    """`values` as Python ints.  Any integral number is accepted (int, numpy
    integer, integral float or Fraction); a bool or a fractional, non-finite
    or non-numeric value raises ValueError naming `what` and the value."""
    if not hasattr(values, "__iter__"):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    out = []
    for x in values:
        if type(x) is not int:
            try:
                n = int(x)
            except (TypeError, ValueError, OverflowError):
                n = None
            if n is None or n != x or type(x).__name__ == "bool":  # also numpy.bool
                raise ValueError(f"{what} must be integers, got {x!r}")
            x = n
        out.append(x)
    return tuple(out)


def integer_points(points) -> np.ndarray:
    """points, integers (1-D), tuples of one length d or a signed-integer array of
    shape (n,) or (n, d), as an (n, d) int64 array (an int64 array is not copied);
    ValueError on an empty, mixed or ragged set, or a bad or too large coordinate."""
    if isinstance(points, np.ndarray) and points.dtype.kind == "i" \
            and points.ndim in (1, 2) and points.size:
        return points.astype(np.int64, copy=False).reshape(len(points), -1)
    points = list(points)
    if not points:
        raise ValueError("empty point set")
    vector = np.ndim(points[0]) > 0
    try:  # a scalar among tuples raises TypeError, tuples of two lengths ValueError
        (d,) = {len(p) for p in points} if vector else {1}
    except (TypeError, ValueError):
        raise ValueError("points must be all integers or all tuples of one length") from None
    coords = integers([x for p in points for x in p], "point coordinates") if vector \
        else integers(points, "points")
    try:
        return np.array(coords, dtype=np.int64).reshape(len(points), d)
    except OverflowError:
        raise ValueError("points do not fit in 64-bit integers") from None


def _is_square_free(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _validate_radicand(d) -> int:
    try:
        n = operator.index(d)  # a numpy integer becomes a Python int
    except TypeError:
        n = 0
    if n <= 1:
        raise ValueError(f"radicand must be an integer >= 2, got {d!r}")
    if math.isqrt(n) ** 2 == n or not _is_square_free(n):
        raise ValueError(f"radicand must be square-free and not a perfect square, got {n}")
    return n


def _fraction(x) -> Fraction:
    """Fraction(x) over Python ints; Fraction keeps a fixed-width numpy integer."""
    x = Fraction(x)
    if type(x.numerator) is type(x.denominator) is int:
        return x
    return Fraction(int(x.numerator), int(x.denominator))


def quad_sign(p: Fraction, q: Fraction, d: int) -> int:
    """Exact sign of p + q*sqrt(d) as -1, 0 or +1, using only integer compares.

    When p and q have opposite signs the comparison reduces to p*p vs q*q*d,
    which cannot be an equality for square-free d >= 2 unless p = q = 0.
    """
    sp = (p > 0) - (p < 0)
    if q == 0:
        return sp
    sq = (q > 0) - (q < 0)
    if p == 0:
        return sq
    if sp == sq:
        return sp
    lhs = p * p
    rhs = q * q * d
    if lhs == rhs:
        # impossible for a genuine irrational sqrt(d); guards against misuse
        raise ArithmeticError(f"sqrt({d}) behaves rationally; radicand invalid")
    return sp if lhs > rhs else sq


def _aligned(op):
    """The binary method op(a, b) on self and other over one radicand.

    A rational other (int, Fraction, or a QuadNum with q = 0) adopts self's
    radicand, and a rational self adopts other's; two irrationals with
    different radicands raise ValueError; any other type gives NotImplemented,
    so Python raises TypeError once the reflected operation declines too.
    """
    def method(self, other):
        if isinstance(other, _RationalLike):
            other = QuadNum(other, 0, self.D)
        elif not isinstance(other, QuadNum):
            return NotImplemented
        elif self.D != other.D:
            if other.q == 0:
                other = QuadNum(other.p, 0, self.D)
            elif self.q == 0:
                self = QuadNum(self.p, 0, other.D)
            else:
                raise ValueError(f"mixed radicands {self.D} and {other.D}")
        return op(self, other)
    return method


@functools.total_ordering
class QuadNum:
    """An element p + q*sqrt(D) of the real quadratic field Q(sqrt(D)).

    p and q are Fractions; D is a square-free integer >= 2.  Arithmetic and
    order between two irrational numbers with different radicands raise; a
    rational operand (q = 0, plain int, or Fraction) adopts the other
    operand's field.  total_ordering derives <=, > and >= from < and ==.
    """

    __slots__ = ("p", "q", "D")

    def __init__(self, p=0, q=0, D=2):
        self.p = _fraction(p)
        self.q = _fraction(q)
        self.D = _validate_radicand(D)

    # -- construction / conversion -------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "QuadNum":
        """Parse {"p": "num/den", "q": "num/den", "D": int}."""
        try:
            return cls(Fraction(obj["p"]), Fraction(obj["q"]), *integers([obj["D"]], "D"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad quadratic-number JSON {obj!r}: {exc}") from None

    def to_json(self) -> dict:
        return {
            "p": f"{self.p.numerator}/{self.p.denominator}",
            "q": f"{self.q.numerator}/{self.q.denominator}",
            "D": self.D,
        }

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.D)

    # -- arithmetic ----------------------------------------------------------------

    @_aligned
    def __add__(a, b):
        return QuadNum(a.p + b.p, a.q + b.q, a.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.p, -self.q, self.D)

    @_aligned
    def __sub__(a, b):
        return QuadNum(a.p - b.p, a.q - b.q, a.D)

    @_aligned
    def __rsub__(a, b):
        return QuadNum(b.p - a.p, b.q - a.q, a.D)

    @_aligned
    def __mul__(a, b):
        return QuadNum(a.p * b.p + a.q * b.q * a.D, a.p * b.q + a.q * b.p, a.D)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadNum":
        """Field conjugate p - q*sqrt(D)."""
        return QuadNum(self.p, -self.q, self.D)

    @_aligned
    def __truediv__(a, b):
        # 1/(p+q*sqrt(D)) = (p-q*sqrt(D)) / (p^2 - q^2*D)
        norm = b.p * b.p - b.q * b.q * b.D
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(D))")
        return a * QuadNum(b.p / norm, -b.q / norm, a.D)

    @_aligned
    def __rtruediv__(a, b):
        return b / a

    # -- order and identity --------------------------------------------------------

    @_aligned
    def _equal(a, b):
        return a.p == b.p and a.q == b.q

    def __eq__(self, other):
        try:
            return self._equal(other)
        except ValueError:
            return False  # distinct irrationals from different fields

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.D))

    @_aligned
    def __lt__(a, b):
        return quad_sign(a.p - b.p, a.q - b.q, a.D) < 0

    # -- floor / fractional part ---------------------------------------------------

    def __floor__(self) -> int:
        """Exact floor of (a + c*sqrt(D))/lcm over integers, with no float:
        for c != 0, m = isqrt(c*c*D) lies strictly inside (|c|*sqrt(D) - 1,
        |c|*sqrt(D)), so a + c*sqrt(D) lies strictly inside (a+m, a+m+1) or
        (a-m-1, a-m); for c = 0, m = 0 and the floor is a // lcm."""
        lcm = math.lcm(self.p.denominator, self.q.denominator)
        a = self.p.numerator * (lcm // self.p.denominator)
        c = self.q.numerator * (lcm // self.q.denominator)
        m = math.isqrt(c * c * self.D)
        return (a + m if c >= 0 else a - m - 1) // lcm

    def frac_mod1(self) -> "QuadNum":
        """Fractional part: self - floor(self), exactly in [0, 1)."""
        return QuadNum(self.p - math.floor(self), self.q, self.D)

    def __repr__(self):
        return f"QuadNum({self.p}, {self.q}, D={self.D})"

"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

Numbers are stored as p + q*sqrt(D) with exact rational p, q and a fixed
square-free radicand D, so sign tests, floors and fractional parts of
irrational multiples never go through floating point.  This is what makes
quasicrystal membership tests ({alpha*n} in [lo, hi)) exact: every decision
reduces to comparing integers.  A floor is one integer square root, so its
cost grows with the digits of p and q, not with their size.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["QuadNum", "quad_sign"]

_RationalLike = (int, Fraction)


def _is_square_free(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _validate_radicand(d: int) -> int:
    if not isinstance(d, int) or d <= 1:
        raise ValueError(f"radicand must be an integer >= 2, got {d!r}")
    if math.isqrt(d) ** 2 == d or not _is_square_free(d):
        raise ValueError(f"radicand must be square-free and not a perfect square, got {d}")
    return d


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


class QuadNum:
    """An element p + q*sqrt(D) of the real quadratic field Q(sqrt(D)).

    p and q are Fractions; D is a square-free integer >= 2.  Arithmetic
    between two irrational numbers with different radicands raises; a
    rational operand (q = 0, plain int, or Fraction) adopts the other
    operand's field.
    """

    __slots__ = ("p", "q", "D")

    def __init__(self, p=0, q=0, D=2):
        self.p = Fraction(p)
        self.q = Fraction(q)
        self.D = _validate_radicand(D)

    # -- construction / conversion -------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "QuadNum":
        """Parse {"p": "num/den", "q": "num/den", "D": int}."""
        try:
            return cls(Fraction(obj["p"]), Fraction(obj["q"]), int(obj["D"]))
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

    # -- alignment of operands -----------------------------------------------------

    def _align(self, other):
        """Return (a, b) over a common radicand, or None if other is foreign."""
        if isinstance(other, _RationalLike):
            return self, QuadNum(other, 0, self.D)
        if not isinstance(other, QuadNum):
            return None
        if self.D == other.D:
            return self, other
        if other.q == 0:
            return self, QuadNum(other.p, 0, self.D)
        if self.q == 0:
            return QuadNum(self.p, 0, other.D), other
        raise ValueError(f"mixed radicands {self.D} and {other.D}")

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadNum(a.p + b.p, a.q + b.q, a.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.p, -self.q, self.D)

    def __sub__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadNum(a.p - b.p, a.q - b.q, a.D)

    def __rsub__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadNum(b.p - a.p, b.q - a.q, a.D)

    def __mul__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadNum(a.p * b.p + a.q * b.q * a.D, a.p * b.q + a.q * b.p, a.D)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadNum":
        """Field conjugate p - q*sqrt(D)."""
        return QuadNum(self.p, -self.q, self.D)

    def __truediv__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        # 1/(p+q*sqrt(D)) = (p-q*sqrt(D)) / (p^2 - q^2*D)
        norm = b.p * b.p - b.q * b.q * b.D
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(D))")
        return a * QuadNum(b.p / norm, -b.q / norm, a.D)

    def __rtruediv__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b / a

    # -- order and identity --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign as -1, 0 or +1."""
        return quad_sign(self.p, self.q, self.D)

    def __eq__(self, other):
        try:
            pair = self._align(other)
        except ValueError:
            return False  # distinct irrationals from different fields
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.p == b.p and a.q == b.q

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.D))

    def _cmp(self, other) -> int:
        pair = self._align(other)
        if pair is None:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        a, b = pair
        return quad_sign(a.p - b.p, a.q - b.q, a.D)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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

"""Exact quadratic-field arithmetic against a high-precision Decimal oracle."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from rieszforge import QuadNum, UnitInterval, quad_sign


def decimal_value(x: QuadNum, prec: int = 100) -> Decimal:
    getcontext().prec = prec
    root = Decimal(x.D).sqrt()
    return (Decimal(x.p.numerator) / Decimal(x.p.denominator)
            + Decimal(x.q.numerator) / Decimal(x.q.denominator) * root)


def test_radicand_validation():
    with pytest.raises(ValueError):
        QuadNum(1, 1, 4)  # perfect square
    with pytest.raises(ValueError):
        QuadNum(1, 1, 12)  # 12 = 4*3 not square-free
    with pytest.raises(ValueError):
        QuadNum(1, 1, 1)
    QuadNum(1, 1, 2)
    QuadNum(1, 1, 6)
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="radicand must be an integer"):
            QuadNum(1, 1, bad)


def test_numpy_integers_become_python_ints():
    # Fraction keeps a numpy numerator, whose fixed width broke quad_sign
    cases = [
        (QuadNum(np.int64(1), np.int64(1), 2), QuadNum(1, 1, 2)),
        (QuadNum(Fraction(np.int64(3), 4), 1, 2), QuadNum(Fraction(3, 4), 1, 2)),
        (QuadNum(np.int64(-7), np.int32(5), np.int64(2)), QuadNum(-7, 5, 2)),
        (QuadNum(0, 1, np.int64(6)), QuadNum(0, 1, 6)),
    ]
    for got, want in cases:
        assert got == want and quad_sign(got.p, got.q, got.D) == quad_sign(want.p, want.q, want.D)
        assert math.floor(got * 2**70) == math.floor(want * 2**70)
        assert all(type(v) is int for v in (got.p.numerator, got.p.denominator,
                                             got.q.numerator, got.q.denominator, got.D))
    assert UnitInterval(np.int64(0), 1) == UnitInterval(0, 1)
    assert UnitInterval(Fraction(np.int64(1), 3), np.int64(1)).length == Fraction(2, 3)


def test_sign_simple_cases():
    assert quad_sign(Fraction(0), Fraction(0), 2) == 0
    assert quad_sign(Fraction(3), Fraction(0), 2) == 1
    assert quad_sign(Fraction(0), Fraction(-1), 2) == -1
    # 7 - 5*sqrt(2) < 0 since 49 < 50
    assert quad_sign(Fraction(7), Fraction(-5), 2) == -1
    # 17 - 12*sqrt(2) > 0 since 289 > 288
    assert quad_sign(Fraction(17), Fraction(-12), 2) == 1


def test_sign_against_decimal_oracle():
    import random
    rng = random.Random(20240817)
    for _ in range(10000):
        d = rng.choice([2, 3, 5, 6, 7, 10])
        p = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        got = quad_sign(p, q, d)
        val = decimal_value(QuadNum(p, q, d))
        # oracle margin: 100-digit arithmetic leaves these values far from 0
        assert abs(val) > Decimal("1e-80") or got == 0
        want = 0 if val == 0 else (1 if val > 0 else -1)
        assert got == want, (p, q, d)


def test_floor_examples():
    assert math.floor(QuadNum(0, 1, 2)) == 1          # sqrt(2) = 1.41..
    assert math.floor(QuadNum(0, -1, 2)) == -2        # -sqrt(2) = -1.41..
    assert math.floor(QuadNum(3, 0, 2)) == 3
    assert math.floor(QuadNum(Fraction(-7, 2), 0, 2)) == -4
    assert math.floor(QuadNum(2, 1, 2)) == 3          # 3.41..
    # huge coefficients exercise the overflow fallback path
    big = QuadNum(Fraction(10**400), Fraction(10**398), 2)
    assert math.floor(big) == (10**400 + math.isqrt(2 * 10**(2 * 398)))


def test_floor_against_decimal_oracle():
    import random
    rng = random.Random(7)
    for _ in range(2000):
        d = rng.choice([2, 3, 5, 6])
        x = QuadNum(Fraction(rng.randint(-10**5, 10**5), rng.randint(1, 100)),
                    Fraction(rng.randint(-10**5, 10**5), rng.randint(1, 100)), d)
        val = decimal_value(x)
        want = int(val.to_integral_value(rounding="ROUND_FLOOR"))
        assert math.floor(x) == want


def _decimal_floor(x: QuadNum) -> int:
    # 200 digits resolve 1e-150 at |x| < 1e42; every non-integer x below lies
    # much farther than that from the nearest integer
    return int(decimal_value(x, prec=200).to_integral_value(rounding="ROUND_FLOOR"))


def test_floor_against_decimal_oracle_large(monkeypatch):
    import random
    from rieszforge import quadfield

    def no_sign_tests(*args):
        raise AssertionError("floor must not call quad_sign")

    monkeypatch.setattr(quadfield, "quad_sign", no_sign_tests)
    rng = random.Random(2026)
    cases = []
    for _ in range(3000):
        d = rng.choice([2, 3, 5, 6, 7, 10, 13])
        top_p, top_q = 10 ** rng.randint(0, 40), 10 ** rng.randint(0, 40)
        p = Fraction(rng.randint(-top_p, top_p), rng.randint(1, 10 ** rng.randint(0, 8)))
        q = Fraction(rng.randint(-top_q, top_q), rng.randint(1, 10 ** rng.randint(0, 8)))
        cases.append(QuadNum(p, q, d))
        cases.append(QuadNum(p, 0, d))                  # q = 0
    cases += [
        QuadNum(10**40, 0, 2), QuadNum(-10**40, 0, 2),  # integer-valued x
        QuadNum(Fraction(-10**40, 3), 0, 5),            # negative rational
        QuadNum(0, -10**40, 2), QuadNum(0, 10**40, 3),  # pure irrationals
        QuadNum(-10**40, 10**39, 2),                    # negative x, q > 0
        QuadNum(10**40, -10**40, 6),                    # negative x, q < 0
        # p + q*sqrt(2) = (sqrt 2 - 1)^42 ~ 8e-17: floor 0 by cancellation
        QuadNum(5964153172084899, -4217293152016490, 2),
        QuadNum(-5964153172084899, 4217293152016490, 2),
    ]
    for x in cases:
        assert math.floor(x) == _decimal_floor(x), x


def test_frac_mod1():
    x = QuadNum(0, 1, 2)  # sqrt(2)
    f = x.frac_mod1()
    assert f.p == -1 and f.q == 1
    assert 0 <= float(f) < 1
    # frac(14 * (6-sqrt(6))/12) = (36 - 14*sqrt(6))/12 ~ 0.142262
    alpha = QuadNum(Fraction(1, 2), Fraction(-1, 12), 6)
    y = alpha * 14
    assert math.floor(y) == 4
    f = y.frac_mod1()
    assert f.p == Fraction(3) and f.q == Fraction(-14, 12)
    assert abs(float(f) - 0.142261967) < 1e-7
    # whole numbers have zero fractional part
    assert QuadNum(5, 0, 2).frac_mod1() == QuadNum(0, 0, 2)


def test_field_axioms_random():
    import random
    rng = random.Random(99)

    def rand(d):
        return QuadNum(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                       Fraction(rng.randint(-50, 50), rng.randint(1, 9)), d)

    for _ in range(300):
        d = rng.choice([2, 3, 5])
        a, b, c = rand(d), rand(d), rand(d)
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a - b) + b == a
        if b != 0:
            assert (a / b) * b == a
        assert a * b == b * a
        assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)


def test_rational_operand_adopts_field():
    a = QuadNum(1, 1, 3)
    assert (a + 2).D == 3
    assert (2 + a) == QuadNum(3, 1, 3)
    assert a * Fraction(1, 2) == QuadNum(Fraction(1, 2), Fraction(1, 2), 3)
    # rational QuadNum from a different field is still compatible
    r = QuadNum(Fraction(5, 7), 0, 2)
    assert (a + r).D == 3
    # two genuinely irrational radicands cannot mix
    with pytest.raises(ValueError):
        QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
    assert QuadNum(0, 1, 2) != QuadNum(0, 1, 3)


def test_comparisons():
    a = QuadNum(0, 1, 2)     # 1.414
    b = QuadNum(Fraction(3, 2), 0, 2)
    assert a < b < a * 2
    assert a <= a
    assert b > 1 and b >= Fraction(3, 2)
    assert sorted([b, a, QuadNum(0, 0, 2)]) == [QuadNum(0, 0, 2), a, b]


def test_division():
    a = QuadNum(1, 1, 2)                 # 1 + sqrt(2)
    inv = 1 / a
    assert inv == QuadNum(-1, 1, 2)      # (sqrt(2)-1)(sqrt(2)+1) = 1
    assert a * inv == QuadNum(1, 0, 2)
    with pytest.raises(ZeroDivisionError):
        a / QuadNum(0, 0, 2)
    assert (a / a) == QuadNum(1, 0, 2)


def test_conjugate_and_norm():
    a = QuadNum(3, 2, 2)
    n = a * a.conjugate()
    assert n.q == 0 and n.p == 9 - 4 * 2


def test_json_round_trip():
    a = QuadNum(Fraction(47, 120), Fraction(1, 64), 2)
    obj = a.to_json()
    assert obj == {"p": "47/120", "q": "1/64", "D": 2}
    assert QuadNum.from_json(obj) == a
    with pytest.raises(ValueError):
        QuadNum.from_json({"p": "1/2"})
    with pytest.raises(ValueError):
        QuadNum.from_json({"p": "x", "q": "0/1", "D": 2})


def test_hash_consistency():
    # rational QuadNums hash like their Fraction value
    assert hash(QuadNum(Fraction(3, 2), 0, 2)) == hash(Fraction(3, 2))
    assert hash(QuadNum(1, 1, 2)) == hash(QuadNum(1, 1, 2))
    s = {QuadNum(1, 1, 2), QuadNum(1, 1, 2), QuadNum(1, 0, 2)}
    assert len(s) == 2


FOREIGN = ["x", 1.5, None]
ARITHMETIC = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
              lambda a, b: a / b]
ORDER = [lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b,
         lambda a, b: a >= b]


@pytest.mark.parametrize("other", FOREIGN)
@pytest.mark.parametrize("op", ARITHMETIC + ORDER)
def test_foreign_operands_raise_type_error_on_either_side(op, other):
    q = QuadNum(1, 1, 2)
    with pytest.raises(TypeError):
        op(q, other)
    with pytest.raises(TypeError):
        op(other, q)


@pytest.mark.parametrize("other", FOREIGN)
def test_foreign_operands_are_unequal(other):
    q = QuadNum(1, 1, 2)
    assert not q == other and q != other
    assert not other == q and other != q


def test_equality_across_radicands():
    assert (QuadNum(1, 1, 2) == QuadNum(1, 1, 3)) is False
    assert (QuadNum(1, 1, 2) != QuadNum(1, 1, 3)) is True
    assert QuadNum(2, 0, 2) == QuadNum(2, 0, 3) == 2
    with pytest.raises(ValueError):
        QuadNum(0, 1, 2) < QuadNum(0, 1, 3)

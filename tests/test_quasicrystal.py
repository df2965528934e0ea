"""Cut-and-project generation, parameter choice, gap/density statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rieszforge import PointSet, QuadNum, UnitInterval, choose_params, \
    construct_riesz_set, density_stats, gap_stats, generate, \
    generate_centered, kahane_classify, landau_check, normalize_bands
from rieszforge import quasicrystal
from rieszforge.quadfield import quad_sign

SQRT6_OVER6 = QuadNum(0, Fraction(1, 6), 6)
ALPHA6 = QuadNum(Fraction(1, 2), Fraction(-1, 12), 6)  # (6-sqrt(6))/12


def _generate_exact(alpha, interval, window):
    """Oracle: the orbit advanced in exact Q(sqrt(D)), two sign tests per integer."""
    d = alpha.D
    lp, lq = interval.lo.p, interval.lo.q
    hp, hq = interval.hi.p, interval.hi.q
    start = (alpha * window[0]).frac_mod1()
    rp, rq = start.p, start.q
    out = []
    for n in range(window[0], window[1] + 1):
        if quad_sign(rp - lp, rq - lq, d) >= 0 and quad_sign(rp - hp, rq - hq, d) < 0:
            out.append(n)
        rp += alpha.p
        rq += alpha.q
        if quad_sign(rp - 1, rq, d) >= 0:
            rp -= 1
    return PointSet(elements=tuple(out), window=tuple(window))


def _count_exact_calls(monkeypatch):
    calls = [0]
    real = quasicrystal.quad_sign

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(quasicrystal, "quad_sign", counting)
    return calls


# both regimes: the ends and midpoints of the benchmark's regime slots
# (0.27-0.31, 0.36-0.44, 0.56-0.64, 0.69-0.73, 0.765-0.79) and a few more
ORACLE_S_NORMS = (0.15, 0.27, 0.29, 0.31, 0.36, 0.40, 0.44, 0.49,
                  0.56, 0.60, 0.64, 0.69, 0.71, 0.73, 0.765, 0.78, 0.79, 0.9)


@pytest.mark.parametrize("mode", ["auto", "small"])
@pytest.mark.parametrize("s_norm", ORACLE_S_NORMS)
def test_generate_matches_exact_oracle(s_norm, mode):
    p = choose_params(s_norm, mode)
    window = (-400, 400)
    assert generate(p.alpha, p.riesz_interval, window) == \
        _generate_exact(p.alpha, p.riesz_interval, window)


@pytest.mark.parametrize("interval", [
    UnitInterval(0, SQRT6_OVER6),
    UnitInterval(SQRT6_OVER6, 1),
    UnitInterval(Fraction(1, 3), Fraction(5, 7)),     # rational endpoints
    UnitInterval(SQRT6_OVER6, Fraction(3, 4)),        # mixed endpoints
    UnitInterval(0, 1),                               # the full interval
])
def test_generate_matches_exact_oracle_alpha6(interval):
    window = (-1500, 1500)
    assert generate(ALPHA6, interval, window) == _generate_exact(ALPHA6, interval, window)


@pytest.mark.parametrize("alpha", [ALPHA6, choose_params(0.45).alpha])
def test_generate_endpoints_on_the_orbit(alpha):
    # lo = frac(alpha*7) and hi = frac(alpha*-13): the float orbit meets both
    # endpoints exactly, so only the exact fallback can place 7 and -13
    ends = sorted([(alpha * 7).frac_mod1(), (alpha * -13).frac_mod1()])
    interval = UnitInterval(*ends)
    window = (-300, 300)
    got = generate(alpha, interval, window)
    assert got == _generate_exact(alpha, interval, window)
    first = 7 if ends[0] == (alpha * 7).frac_mod1() else -13
    assert first in got.elements
    assert ({7, -13} - {first}).isdisjoint(got.elements)


@pytest.mark.parametrize("window", [
    (10**6 - 300, 10**6 + 300),
    (-10**6 - 300, -10**6 + 300),
    (2**40 - 300, 2**40 + 300),
    (-2**40 - 300, -2**40 + 300),
    (10**20, 10**20 + 20),            # beyond int64: every integer goes exact
    (10**30, 10**30 + 100),           # exact floors by integer square root
])
@pytest.mark.parametrize("s_norm", [0.45, 0.78])
def test_generate_far_windows_match_oracle(window, s_norm):
    p = choose_params(s_norm)
    assert generate(p.alpha, p.riesz_interval, window) == \
        _generate_exact(p.alpha, p.riesz_interval, window)


def test_generate_cancelling_alpha_goes_exact_everywhere(monkeypatch):
    # (1+sqrt 2)^42 = a + b sqrt 2, so a - b sqrt 2 = (sqrt 2 - 1)^42 ~ 8e-17:
    # alpha + a - b sqrt 2 is alpha up to 1e-16, written with p, q ~ 6e15, so
    # the float of alpha carries no information and the filter trusts nothing
    p = choose_params(0.45)
    a, b = 5964153172084899, 4217293152016490
    assert a * a - 2 * b * b == 1
    alpha = QuadNum(p.alpha.p + a, p.alpha.q - b, 2)
    window = (-120, 120)
    calls = _count_exact_calls(monkeypatch)
    got = generate(alpha, p.riesz_interval, window)
    assert calls[0] >= window[1] - window[0] + 1
    assert got == _generate_exact(alpha, p.riesz_interval, window)


def test_generate_bound_grows_along_the_orbit():
    # (1+sqrt 2)^26 = a + b sqrt 2: alpha written with p, q ~ 4e9 has a float
    # off by ~1e-7, so from n0 = 0, where s = 0 exactly, the float orbit drifts
    # by ~1e-7 * k and only the k-proportional part of the bound catches it
    p = choose_params(0.45)
    a, b = 4478554083, 3166815962
    assert a * a - 2 * b * b == 1
    alpha = QuadNum(p.alpha.p + a, p.alpha.q - b, 2)
    window = (0, 10000)
    assert generate(alpha, p.riesz_interval, window) == \
        _generate_exact(alpha, p.riesz_interval, window)


def test_generate_exact_fallback_is_rare(monkeypatch):
    # guards against a filter that silently decides everything exactly
    for s_norm in (0.29, 0.45, 0.60, 0.78):
        p = choose_params(s_norm)
        calls = _count_exact_calls(monkeypatch)
        ps = generate(p.alpha, p.riesz_interval, (-50000, 50000))
        assert calls[0] <= 0.01 * ps.span, (s_norm, calls[0])


def test_gap_law_wide_window():
    for s_norm in (0.15, 0.29, 0.40, 0.49):
        p = choose_params(s_norm)
        ps = generate(p.alpha, p.riesz_interval, (-50000, 50000))
        assert set(gap_stats(ps).gaps) == {1, p.n}, s_norm


def test_generate_window_ends_must_be_integers():
    interval = UnitInterval(0, SQRT6_OVER6)
    for window in [(0.5, 10.7), (0, 10.5), (float("nan"), 10), (0, float("inf")), (True, 10)]:
        with pytest.raises(ValueError):
            generate(ALPHA6, interval, window)
    # integral values of any numeric type keep working
    want = generate(ALPHA6, interval, (0, 18))
    assert generate(ALPHA6, interval, (0.0, 18.0)) == want
    assert generate(ALPHA6, interval, (np.int64(0), np.int64(18))) == want
    assert generate(ALPHA6, interval, (Fraction(0), Fraction(18))) == want
    assert generate(ALPHA6, interval, [np.float64(0), 18]) == want
    assert all(type(n) is int for n in (*want.elements, *want.window))


def test_generate_regression_vector():
    got = generate(ALPHA6, UnitInterval(0, SQRT6_OVER6), (0, 18))
    assert got.elements == (0, 1, 4, 7, 8, 11, 14, 17, 18)
    assert gap_stats(got).gaps == (1, 3, 3, 1, 3, 3, 3, 1)


def test_generate_validates_inputs():
    interval = UnitInterval(0, SQRT6_OVER6)
    with pytest.raises(ValueError):
        generate(QuadNum(Fraction(1, 3), 0, 2), interval, (0, 10))  # rational
    with pytest.raises(ValueError):
        generate(QuadNum(1, 1, 2), interval, (0, 10))  # > 1
    with pytest.raises(ValueError):
        generate(ALPHA6, interval, (5, 1))  # reversed window
    # interval endpoints must live in alpha's field (or be rational)
    with pytest.raises(ValueError):
        generate(ALPHA6, UnitInterval(0, QuadNum(0, Fraction(1, 2), 2)), (0, 10))


def test_generate_rational_endpoints_ok():
    ps = generate(ALPHA6, UnitInterval(0, Fraction(1, 3)), (0, 30))
    assert all(float(ALPHA6 * n) % 1.0 < 1 / 3 + 1e-9 for n in ps.elements)


def test_partition_identity():
    # I and its complement tile [0,1): the two point sets tile the window
    alpha = ALPHA6
    a = SQRT6_OVER6
    window = (-200, 200)
    inside = generate(alpha, UnitInterval(0, a), window)
    outside = generate(alpha, UnitInterval(a, 1), window)
    merged = sorted(inside.elements + outside.elements)
    assert merged == list(range(window[0], window[1] + 1))
    assert set(inside.elements).isdisjoint(outside.elements)


def test_density_matches_interval_length():
    # equidistribution: frequency of hits approaches |I|
    ps = generate(ALPHA6, UnitInterval(0, SQRT6_OVER6), (-20000, 20000))
    assert ps.density == pytest.approx(float(SQRT6_OVER6), abs=2e-4)


def test_generate_centered_reaches_count():
    ps = generate_centered(ALPHA6, UnitInterval(0, SQRT6_OVER6), 500)
    assert len(ps) >= 500
    assert ps.window[0] == -ps.window[1]
    with pytest.raises(ValueError):
        generate_centered(ALPHA6, UnitInterval(0, SQRT6_OVER6), 0)


def test_choose_params_small_045():
    p = choose_params(0.45)
    assert p.mode == "small" and p.n == 3
    # deterministic: midpoint of (1/3, 0.45) plus sqrt(2)/64
    assert p.a.q == Fraction(1, 64) and p.a.D == 2
    assert float(p.a) == pytest.approx(47 / 120 + math.sqrt(2) / 64, abs=1e-12)
    assert float(p.alpha) == pytest.approx((1 - float(p.a)) / 2, abs=1e-15)
    assert (p.a - p.alpha).sign() > 0       # alpha < a
    assert p.riesz_interval == UnitInterval(0, p.a)


def test_choose_params_large_08():
    p = choose_params(0.8)
    assert p.mode == "large" and p.n == 4
    assert p.a.q == Fraction(1, 128)
    assert float(p.a) == pytest.approx(9 / 40 + math.sqrt(2) / 128, abs=1e-12)
    assert (p.alpha - p.a).sign() > 0       # alpha > a
    # riesz interval is the complement [a, 1)
    assert p.riesz_interval == UnitInterval(p.a, 1)


def test_choose_params_small_for_large_measure():
    # universality: small mode may serve any measure
    p = choose_params(0.8, mode="small")
    assert p.mode == "small" and p.n == 2
    assert float(p.a) < 0.8


def test_choose_params_gap_law():
    # small-mode sets have gaps exactly {1, n}
    for s_norm in [0.15, 0.26, 0.45, 0.49]:
        p = choose_params(s_norm)
        ps = generate(p.alpha, p.riesz_interval, (-2000, 2000))
        assert set(gap_stats(ps).gaps) == {1, p.n}, s_norm


def test_choose_params_large_separation():
    # large-mode complement has gaps >= n
    for s_norm in [0.55, 0.7, 0.8]:
        p = choose_params(s_norm)
        ps = generate(p.alpha, p.riesz_interval, (-2000, 2000))
        comp = ps.complement_in_window()
        assert gap_stats(comp).min_gap >= p.n, s_norm


def test_choose_params_validation():
    with pytest.raises(ValueError):
        choose_params(0.0)
    with pytest.raises(ValueError):
        choose_params(1.0)
    with pytest.raises(ValueError):
        choose_params(0.45, mode="large")  # needs s_norm > 1/2
    with pytest.raises(ValueError):
        choose_params(0.45, mode="banana")


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(elements=(3, 2), window=(0, 5))
    with pytest.raises(ValueError):
        PointSet(elements=(0, 9), window=(0, 5))
    with pytest.raises(ValueError):
        PointSet(elements=(), window=(5, 0))
    ps = PointSet(elements=(0, 2, 5), window=(0, 5))
    assert len(ps) == 3 and ps.span == 6
    assert PointSet.from_json(ps.to_json()) == ps


def test_gap_stats_degenerate():
    assert gap_stats([7]).gamma == math.inf
    assert gap_stats([]).min_gap == math.inf
    st = gap_stats([0, 1, 4])
    assert st.gaps == (1, 3) and st.gamma == 3 and st.min_gap == 1


def test_density_stats_progression():
    # span 4000: every sliding window of 1000 integers holds exactly 250 points
    ps = PointSet(elements=tuple(range(0, 4000, 4)), window=(0, 3999))
    st = density_stats(ps)
    assert st.window_r == 1000
    assert st.upper == st.lower == st.asymptotic == 0.25


def test_density_window_defaults_to_min_1000_span():
    short = PointSet(elements=tuple(range(0, 300, 3)), window=(0, 299))
    st = density_stats(short)
    assert st.window_r == 300
    assert st.upper == st.lower == st.asymptotic == 100 / 300
    one = density_stats(PointSet(elements=(5,), window=(5, 5)))
    assert one.window_r == 1 and one.upper == one.lower == 1.0


def test_landau_check():
    s = normalize_bands([(0.0, 0.5)], unit="2pi")
    thin = PointSet(elements=tuple(range(0, 1000, 3)), window=(0, 999))
    dense = PointSet(elements=tuple(range(1000)), window=(0, 999))
    assert landau_check(thin, s)          # 1/3 <= 0.5 + tol
    assert not landau_check(dense, s)     # 1.0 > 0.5 + tol


def test_kahane_classify():
    s = normalize_bands([(0.0, 0.5)], unit="2pi")
    assert kahane_classify(3, s) == "riesz"        # 1/3 < 1/2
    assert kahane_classify(2, s) == "critical"
    s_small = normalize_bands([(0.0, 0.2)], unit="2pi")
    assert kahane_classify(3, s_small) == "not_riesz"
    with pytest.raises(ValueError):
        kahane_classify(0, s)
    with pytest.raises(ValueError):
        kahane_classify(3, normalize_bands([(0.0, 1.0), (2.0, 3.0)]))


def test_construct_riesz_set_end_to_end():
    s = normalize_bands([(0.0, 0.45)], unit="2pi")
    params, points = construct_riesz_set(s, (-1000, 1000))
    assert params.mode == "small"
    assert landau_check(points, s)
    assert points.density < s.fraction_of_torus


def test_unit_interval_rules():
    with pytest.raises(ValueError):
        UnitInterval(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        UnitInterval(Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        UnitInterval(0, Fraction(3, 2))
    full = UnitInterval(0, 1)
    assert full.length == 1 and full == UnitInterval(Fraction(0), Fraction(1))

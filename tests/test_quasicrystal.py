"""Cut-and-project generation, parameter choice, gap/density statistics."""

import json
import math
import random
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from rieszforge import GapStats, PointSet, QuadNum, UnitInterval, choose_params, \
    construct_riesz_set, density_stats, gap_stats, generate, \
    generate_centered, kahane_classify, normalize_bands
from rieszforge import quadfield, quasicrystal
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
    # every exact comparison of QuadNum goes through quadfield's quad_sign
    calls = [0]
    real = quadfield.quad_sign

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(quadfield, "quad_sign", counting)
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
    # lo = frac(alpha*7) and hi = frac(alpha*-13): the brackets of 7 and -13
    # hold an endpoint, so only the exact fallback can place them
    ends = sorted([(alpha * 7).frac_mod1(), (alpha * -13).frac_mod1()])
    interval = UnitInterval(*ends)
    window = (-300, 300)
    got = generate(alpha, interval, window)
    assert got == _generate_exact(alpha, interval, window)
    first = 7 if ends[0] == (alpha * 7).frac_mod1() else -13
    assert first in got.elements
    assert ({7, -13} - {first}).isdisjoint(got.elements)


@pytest.mark.parametrize("alpha", [ALPHA6, choose_params(0.45).alpha])
@pytest.mark.parametrize("nudge", [Fraction(1, 2**80), -Fraction(1, 2**80)])
def test_generate_ends_a_hair_off_the_orbit(alpha, nudge):
    # an end 2^-80 off frac(alpha*n0) shares its floor with the one-unit
    # bracket of n0 itself, so only strict compares against the floored ends
    # (or the exact fallback) place n0 right
    for n0 in (7, -13):
        x = (alpha * n0).frac_mod1() + nudge
        for interval in (UnitInterval(x, 1), UnitInterval(0, x)):
            window = (n0, n0 + 300)
            assert generate(alpha, interval, window) == \
                _generate_exact(alpha, interval, window), (n0, interval)


@pytest.mark.parametrize("window", [
    (10**6 - 300, 10**6 + 300),
    (-10**6 - 300, -10**6 + 300),
    (2**40 - 300, 2**40 + 300),
    (-2**40 - 300, -2**40 + 300),
    (10**20, 10**20 + 20),            # n0 past int64: only frac(alpha*n0) sees it
    (10**30, 10**30 + 100),           # exact floors by integer square root
    (10**310, 10**310 + 100),         # frac(alpha*n0) has a q past float range
    (10**400, 10**400 + 100),
])
@pytest.mark.parametrize("s_norm", [0.45, 0.78])
def test_generate_far_windows_match_oracle(window, s_norm):
    p = choose_params(s_norm)
    points = generate(p.alpha, p.riesz_interval, window)
    assert points == _generate_exact(p.alpha, p.riesz_interval, window)
    # density statistics see only offsets in the window, wherever it lies
    n0, n1 = window
    shifted = PointSet(elements=tuple(x - n0 for x in points), window=(0, n1 - n0))
    assert density_stats(points) == density_stats(shifted)


# a handful of integers land within a bracket of an endpoint, 0 or 1
FEW_EXACT_CALLS = 16


def test_generate_cancelling_alpha_is_decided_by_the_bracket(monkeypatch):
    # (1+sqrt 2)^42 = a + b sqrt 2, so a - b sqrt 2 = (sqrt 2 - 1)^42 ~ 8e-17:
    # alpha + a - b sqrt 2 is alpha up to 1e-16, written with p, q ~ 6e15.  A
    # float of alpha carries no information; its exact floor loses nothing
    p = choose_params(0.45)
    a, b = 5964153172084899, 4217293152016490
    assert a * a - 2 * b * b == 1
    alpha = QuadNum(p.alpha.p + a, p.alpha.q - b, 2)
    window = (-120, 120)
    calls = _count_exact_calls(monkeypatch)
    got = generate(alpha, p.riesz_interval, window)
    assert calls[0] <= FEW_EXACT_CALLS, calls[0]
    assert got == _generate_exact(alpha, p.riesz_interval, window)


@pytest.mark.parametrize("n0", [10**20, 10**30, 10**400], ids=["1e20", "1e30", "1e400"])
def test_generate_far_windows_stay_in_the_bracket(monkeypatch, n0):
    # the window's place enters only through the exact floor of frac(alpha*n0)
    p = choose_params(0.45)
    window = (n0, n0 + 1000)
    calls = _count_exact_calls(monkeypatch)
    got = generate(p.alpha, p.riesz_interval, window)
    assert calls[0] <= FEW_EXACT_CALLS, calls[0]
    assert got == _generate_exact(p.alpha, p.riesz_interval, window)


@pytest.mark.parametrize("n0", [-7, 0, 10**18, -10**25], ids=["-7", "0", "1e18", "-1e25"])
@pytest.mark.parametrize("s_norm", [0.45, 0.78])
def test_generate_every_bracket_width_matches_oracle(n0, s_norm):
    # sizes 2^k - 1, 2^k and 2^k + 1 step through every bit_length of the
    # window, so each fraction width b the bracket takes for k <= 12 is met;
    # every window starts at n0, so one oracle run covers them all
    p = choose_params(s_norm)
    sizes = sorted({2**k + j for k in range(13) for j in (-1, 0, 1)} - {0})
    exact = _generate_exact(p.alpha, p.riesz_interval, (n0, n0 + sizes[-1] - 1))
    for size in sizes:
        window = (n0, n0 + size - 1)
        want = tuple(n for n in exact.elements if n <= window[1])
        assert generate(p.alpha, p.riesz_interval, window) == \
            PointSet(elements=want, window=window), size


def test_generate_bound_grows_along_the_orbit():
    # (1+sqrt 2)^26 = a + b sqrt 2: alpha written with p, q ~ 4e9, whose float
    # is off by ~1e-7.  From n0 = 0, where s = 0 exactly, the bracket widens
    # by one unit in 2**b per step, and its k-proportional width must cover
    # the drift of the floored alpha
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
    # +-2^21, the CLI's widest window, has the widest brackets (b = 39); with
    # n >= 3 one flipped membership would add a gap outside {1, n}
    for s_norm, half in ((0.15, 50000), (0.29, 50000), (0.40, 50000), (0.49, 50000),
                         (0.40, 2**21)):
        p = choose_params(s_norm)
        ps = generate(p.alpha, p.riesz_interval, (-half, half))
        assert set(gap_stats(ps).gaps) == {1, p.n}, (s_norm, half)


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


def test_generate_accepts_numpy_interval_ends():
    want = generate(ALPHA6, UnitInterval(Fraction(1, 3), 1), (-50, 50))
    assert generate(ALPHA6, UnitInterval(Fraction(np.int64(1), 3), np.int64(1)),
                    (-50, 50)) == want


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
    with pytest.raises(ValueError, match=r"window \(5, 1\) is reversed"):
        generate(ALPHA6, interval, (5, 1))
    # interval endpoints must live in alpha's field (or be rational), and an end
    # from another field is refused before a 10**12-integer window is allocated
    with pytest.raises(ValueError):
        generate(ALPHA6, UnitInterval(0, QuadNum(0, Fraction(1, 2), 2)), (0, 10))
    sqrt3 = QuadNum(0, Fraction(1, 3), 3)
    for interval in (UnitInterval(sqrt3, 1), UnitInterval(0, sqrt3)):
        with pytest.raises(ValueError, match="mixed radicands 3 and 6"):
            generate(ALPHA6, interval, (0, 10**12))


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


@pytest.mark.parametrize("s_norm", [2e-4, 5e-4, 9e-4])
def test_generate_centered_sizes_short_intervals_in_one_window(monkeypatch, s_norm):
    # the first window is sized from |I| itself, so it already holds count points
    calls = []

    def counting(*args):
        calls.append(args[2])
        return generate(*args)

    monkeypatch.setattr(quasicrystal, "generate", counting)
    p = choose_params(s_norm)
    assert float(p.riesz_interval.length) < 1e-3
    assert len(generate_centered(p.alpha, p.riesz_interval, 256)) >= 256
    assert len(calls) == 1, calls


def test_generate_centered_doubles_until_count(monkeypatch):
    # alpha = sqrt2/1000 first reaches [1/2, 3/5) at n = -283 (alpha*283 is
    # just over 0.4): the windows +-9, 18, 36, 72 and 144 hold nothing
    alpha = QuadNum(0, Fraction(1, 1000), 2)
    interval = UnitInterval(Fraction(1, 2), Fraction(3, 5))
    calls = []

    def counting(*args):
        calls.append(args[2])
        return generate(*args)

    monkeypatch.setattr(quasicrystal, "generate", counting)
    ps = generate_centered(alpha, interval, 1)
    assert [w[1] for w in calls] == [9, 18, 36, 72, 144, 288]
    assert ps.window == (-288, 288) and len(ps) >= 1


def test_choose_params_small_045():
    p = choose_params(0.45)
    assert p.mode == "small" and p.n == 3
    # deterministic: midpoint of (1/3, 0.45) plus sqrt(2)/64
    assert p.a.q == Fraction(1, 64) and p.a.D == 2
    assert float(p.a) == pytest.approx(47 / 120 + math.sqrt(2) / 64, abs=1e-12)
    assert float(p.alpha) == pytest.approx((1 - float(p.a)) / 2, abs=1e-15)
    assert p.a - p.alpha > 0       # alpha < a
    assert p.riesz_interval == UnitInterval(0, p.a)


def test_choose_params_large_08():
    p = choose_params(0.8)
    assert p.mode == "large" and p.n == 4
    assert p.a.q == Fraction(1, 128)
    assert float(p.a) == pytest.approx(9 / 40 + math.sqrt(2) / 128, abs=1e-12)
    assert p.alpha - p.a > 0       # alpha > a
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
    with pytest.raises(ValueError, match=r"needs 'elements' and 'window', missing \['window'\]"):
        PointSet.from_json({"elements": [1]})


def test_gap_stats_degenerate():
    assert gap_stats([7]).gamma == math.inf
    assert gap_stats([]).min_gap == math.inf
    st = gap_stats([0, 1, 4])
    assert st.gaps == (1, 3) and st.gamma == 3 and st.min_gap == 1
    # a GapStats built by hand is the value gap_stats gives
    given = GapStats(gaps=(1, 3), gamma=3, min_gap=1)
    assert given == st == gap_stats(PointSet(elements=(0, 1, 4), window=(0, 4)))
    assert hash(given) == hash(st) and repr(given) == repr(st)
    assert given.to_json() == {"gap_values": [1, 3], "gamma": 3, "min_gap": 1, "count": 2}


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
    # an empty set counts zero wherever its window lies, past float range too
    for n0 in (0, 10**30, 10**400):
        none = density_stats(PointSet(elements=(), window=(n0, n0 + 5)))
        assert none.window_r == 6 and none.upper == none.lower == none.asymptotic == 0.0


def test_point_set_stores_a_tuple_of_ints_whatever_it_is_given():
    want = PointSet(elements=(1, 2, 4), window=(0, 5))
    given = [[1, 2, 4], (x for x in (1, 2, 4)), np.array([1, 2, 4]),
             np.array([1, 2, 4], dtype=np.uint8), (np.int64(1), 2.0, Fraction(4))]
    for elements in given:
        ps = PointSet(elements=elements, window=(0, 5))
        assert type(ps.elements) is tuple and all(type(x) is int for x in ps.elements)
        assert ps == want and hash(ps) == hash(want) and repr(ps) == repr(want)
        assert len(ps) == 3 and ps.to_json() == want.to_json()
    big = PointSet(elements=[10**400, 10**400 + 3], window=(10**400, 10**400 + 3))
    assert big.elements == (10**400, 10**400 + 3) and hash(big) == hash(
        PointSet(elements=big.elements, window=big.window))
    for bad in ([1, True], np.array([True, False]), [1.5], ["1"], 3):
        with pytest.raises(ValueError, match="points must be"):
            PointSet(elements=bad, window=(0, 5))


@pytest.mark.parametrize("elements, window, message", [
    ((5, 3), (0, 4), r"element 5 outside window \(0, 4\)"),
    ((3, 2, 9), (0, 5), "strictly increasing"),
    ((1, 9, 2), (0, 5), r"element 9 outside"),
    ((2, -1), (0, 5), r"element -1 outside"),   # a drop and outside: outside is named
    ((1, 1), (0, 5), "strictly increasing"),
    ((-1, 0), (0, 5), r"element -1 outside"),
    ((0, 6, 7), (0, 5), r"element 6 outside"),
    ((10**400 + 1, 10**400), (10**400, 10**400 + 1), "strictly increasing"),
    ((10**400, 10**400 + 2), (10**400, 10**400 + 1), r"element 10{399}2 outside"),
    ([4, 2, 9], (0, 5), "strictly increasing"),
], ids=["outside-first", "drop", "outside-before-drop", "drop-and-outside", "repeat",
        "below", "above", "far-drop", "far-above", "list"])
def test_point_set_names_the_first_offending_element(elements, window, message):
    with pytest.raises(ValueError, match=message):
        PointSet(elements=elements, window=window)


# window starts: near zero, negative, either side of int64's ends, past them and past float range
FAR_STARTS = (0, 3, -7, -10**6, 2**63 - 40, -2**63 - 5, 10**20, -10**20, 10**400, -10**400)
FAR_IDS = ["0", "3", "-7", "-1e6", "2^63-40", "-2^63-5", "1e20", "-1e20", "1e400", "-1e400"]


def _oracle_gaps(elements):
    gaps = tuple(b - a for a, b in zip(elements, elements[1:]))
    return gaps, (max(gaps) if gaps else math.inf), (min(gaps) if gaps else math.inf)


def test_array_statistics_match_their_python_formulas():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def point_sets(draw):
        n0 = draw(st.sampled_from(FAR_STARTS) | st.integers(-50, 50))
        span = draw(st.sampled_from([1, 2, 999, 1000, 1001]) | st.integers(1, 2500))
        count = draw(st.sampled_from([0, 1, 2, span - 1, span]) | st.integers(0, span))
        rng = random.Random(draw(st.integers(0, 2**32)))
        offsets = sorted(rng.sample(range(span), min(count, span)))  # count 2 is drawn at span 1
        return PointSet(elements=tuple(n0 + k for k in offsets), window=(n0, n0 + span - 1))

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(point_sets())
    def check(points):
        elems, (n0, n1) = points.elements, points.window
        lazy = PointSet._from_offsets(np.array([x - n0 for x in elems], dtype=np.int64), (n0, n1))
        assert lazy == points and hash(lazy) == hash(points) and repr(lazy) == repr(points)
        assert len(lazy) == len(elems) and lazy.to_json() == points.to_json()
        oracle = _oracle_gaps(elems)
        for source in (points, lazy, list(elems)):  # validated, unchecked, a plain sequence
            st_ = gap_stats(source)
            assert st_.to_json() == {"gap_values": sorted(set(oracle[0])), "gamma": oracle[1],
                                     "min_gap": oracle[2], "count": len(oracle[0])}
            assert (st_.gaps, st_.gamma, st_.min_gap) == oracle
            assert all(type(g) is int for g in st_.gaps)
        assert density_stats(lazy) == density_stats(points)
        # every sub-window of r integers, counted by bisection on the elements
        r = min(1000, points.span)
        counts = [bisect_left(elems, n0 + s + r) - bisect_left(elems, n0 + s)
                  for s in range(points.span - r + 1)]
        dens = density_stats(points)
        assert (dens.upper, dens.lower, dens.window_r) == (max(counts) / r, min(counts) / r, r)
        assert dens.asymptotic == len(elems) / points.span
        rest = points.complement_in_window()
        inside = set(elems)
        assert rest.elements == tuple(n for n in range(n0, n1 + 1) if n not in inside)
        assert rest.window == points.window and all(type(x) is int for x in rest.elements)
        assert rest == PointSet(elements=list(rest.elements), window=rest.window)
        assert rest.complement_in_window() == points
        json.JSONEncoder().encode(rest.to_json())  # the C encoder refuses numpy ints

    check()


@pytest.mark.parametrize("n0", FAR_STARTS, ids=FAR_IDS)
@pytest.mark.parametrize("s_norm", [0.45, 0.78])
def test_generated_sets_are_the_validated_sets(n0, s_norm):
    # generate, complement_in_window and _from_offsets build their sets unchecked from
    # offsets, and build the elements tuple on first use; each is one value with the
    # set validated from the same ints, before and after either tuple is built
    p = choose_params(s_norm)
    window = (n0, n0 + 300)
    got = generate(p.alpha, p.riesz_interval, window)
    for ps in (got, got.complement_in_window(),
               PointSet._from_offsets(np.arange(0, 301, 7), window)):
        ints = [n0 + k for k in ps._offsets.tolist()]
        same = PointSet(elements=ints, window=window)
        assert len(ps) == len(same) == len(ints)
        assert ps.to_json() == same.to_json() == {"elements": ints, "window": list(window)}
        json.JSONEncoder().encode(ps.to_json())
        assert gap_stats(ps).to_json() == gap_stats(same).to_json() == gap_stats(ints).to_json()
        assert density_stats(ps) == density_stats(same)
        assert "elements" not in vars(ps) and "elements" not in vars(same)  # no tuple yet
        assert ps == same and same == ps
        assert hash(ps) == hash(same) == hash((tuple(ints), window))
        assert repr(ps) == repr(same) == f"PointSet(elements={tuple(ints)!r}, window={window!r})"
        assert list(ps) == list(same) == ints and all(type(x) is int for x in ps)
        assert type(ps.elements) is tuple and ps.elements == same.elements
        assert gap_stats(ps) == gap_stats(same) == gap_stats(ints)
        assert hash(gap_stats(ps)) == hash(gap_stats(ints))
    assert "offsets" not in repr(got) and len({got, PointSet(got.elements, got.window)}) == 1


def test_landau_check():
    s = normalize_bands([(0.0, 0.5)], unit="2pi")
    thin = PointSet(elements=tuple(range(0, 1000, 3)), window=(0, 999))
    dense = PointSet(elements=tuple(range(1000)), window=(0, 999))
    assert density_stats(thin).within_landau(s)          # 1/3 <= 0.5 + tol
    assert not density_stats(dense).within_landau(s)     # 1.0 > 0.5 + tol


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
    # normalize_bands splits [0.9, 1.2) of 2*pi at 0; it is still one arc
    across = normalize_bands([[0.9, 1.2]], unit="2pi")
    assert len(across.arcs) == 2
    assert kahane_classify(3, across) == "not_riesz"    # 1/3 > 0.3
    assert kahane_classify(4, across) == "riesz"        # 1/4 < 0.3


def test_construct_riesz_set_end_to_end():
    s = normalize_bands([(0.0, 0.45)], unit="2pi")
    params, points = construct_riesz_set(s, (-1000, 1000))
    assert params.mode == "small"
    assert density_stats(points).within_landau(s)
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


def test_params_and_intervals_are_hashable():
    assert hash(choose_params(0.45)) == hash(choose_params(0.45))
    assert len({UnitInterval(0, 1), UnitInterval(Fraction(0), Fraction(1)),
                UnitInterval(0, SQRT6_OVER6)}) == 2

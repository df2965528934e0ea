"""Multiband torus sets: canonicalization and indicator coefficients."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from rieszforge import TWO_PI, Arc, MultibandSet, indicator_fourier, normalize_bands
from rieszforge.torus import centered_interval_coefficient, interval_coefficient

import coefficient_oracle as oracle


def test_normalize_basic():
    s = normalize_bands([(0.0, 1.0), (2.0, 3.0)])
    assert len(s.arcs) == 2
    assert s.measure == pytest.approx(2.0)
    assert s.fraction_of_torus == pytest.approx(2.0 / TWO_PI)


def test_normalize_sorts_and_merges():
    s = normalize_bands([(2.0, 3.0), (0.5, 2.1)])
    assert len(s.arcs) == 1
    assert (s.arcs[0].start, s.arcs[0].end) == (0.5, 3.0)
    # adjacency merges too
    s = normalize_bands([(0.0, 1.0), (1.0, 2.0)])
    assert len(s.arcs) == 1 and s.measure == pytest.approx(2.0)


def test_normalize_wraps_mod_2pi():
    # arc crossing 0 splits into two pieces
    s = normalize_bands([(-0.5, 0.5)])
    assert len(s.arcs) == 2
    assert s.measure == pytest.approx(1.0)
    starts = [a.start for a in s.arcs]
    assert starts[0] == pytest.approx(0.0)
    assert starts[1] == pytest.approx(TWO_PI - 0.5)
    # a pure shift by 2*pi is a no-op
    t = normalize_bands([(TWO_PI + 1.0, TWO_PI + 2.0)])
    assert (t.arcs[0].start, t.arcs[0].end) == (pytest.approx(1.0), pytest.approx(2.0))


def test_normalize_units_and_errors():
    s = normalize_bands([(0.0, 0.45)], unit="2pi")
    assert s.measure == pytest.approx(0.45 * TWO_PI)
    with pytest.raises(ValueError):
        normalize_bands([(1.0, 1.0)])
    with pytest.raises(ValueError):
        normalize_bands([(2.0, 1.0)])
    with pytest.raises(ValueError):
        normalize_bands([(0.0, 7.0)])  # longer than the torus
    with pytest.raises(ValueError):
        normalize_bands([])
    with pytest.raises(ValueError):
        normalize_bands([(0.0, 1.0)], unit="deg")
    # a band that covers the torus does not excuse the bands after it
    for bad in ([math.nan, 0.5], [0.5, 0.2], [0, 5]):
        with pytest.raises(ValueError):
            normalize_bands([[0, 1], bad], unit="2pi")
    # endpoints are numbers: float() would take a bool or a numeric string
    for bad in ([0, True], [np.False_, 0.5], ["0.1", "0.5"], [0.1, b"0.5"]):
        with pytest.raises(ValueError, match=r"^bands must be a list of \[start, end\] number"):
            normalize_bands([bad], unit="2pi")
    for good in ([0, 1], [np.int64(0), np.float32(0.5)], [Fraction(1, 10), 0.5]):
        assert normalize_bands([good], unit="2pi").measure == \
            pytest.approx((float(good[1]) - float(good[0])) * TWO_PI)


@pytest.mark.parametrize("band", [(0.1, math.nan), (math.nan, 0.5),
                                  (0.0, math.inf), (-math.inf, math.inf)])
def test_normalize_rejects_non_finite(band):
    with pytest.raises(ValueError):
        normalize_bands([band])


def test_full_torus_collapse():
    s = normalize_bands([(0.0, 1.0)], unit="2pi")
    assert s.arcs == (Arc(0.0, TWO_PI),) and s.measure == TWO_PI
    # covering the circle in two overlapping pieces collapses as well
    t = normalize_bands([(0.0, 4.0), (3.9, TWO_PI)])
    assert t.arcs == (Arc(0.0, TWO_PI),)


def test_indicator_fourier_against_quadrature():
    s = normalize_bands([(0.3, 1.1), (2.0, 2.9), (4.0, 5.5)])
    for m in [0, 1, 2, 3, 7, 15, -1, -4]:
        want = 0j
        for a in s.arcs:
            re, _ = quad(lambda t: math.cos(m * t), a.start, a.end)
            im, _ = quad(lambda t: -math.sin(m * t), a.start, a.end)
            want += re + 1j * im
        got = indicator_fourier(s, m)
        assert abs(got - want) < 1e-10, m


def test_indicator_fourier_zero_mode_and_bound():
    s = normalize_bands([(0.0, 0.9 * math.pi)])
    assert indicator_fourier(s, 0) == complex(s.measure)
    # |c(m)| <= measure for all m
    for m in range(1, 40):
        assert abs(indicator_fourier(s, m)) <= s.measure + 1e-12


def test_conjugate_symmetry_bit_exact():
    s = normalize_bands([(0.2, 1.7), (3.0, 3.3)])
    for m in range(1, 30):
        assert indicator_fourier(s, -m) == indicator_fourier(s, m).conjugate()


def test_translation_covariance():
    # c_translated(m) = exp(-i*m*t0) * c(m)
    s = normalize_bands([(0.5, 1.5), (2.5, 4.0)])
    t0 = 0.7
    shifted = s.translate(t0)
    assert shifted.measure == pytest.approx(s.measure, abs=1e-12)
    for m in range(1, 20):
        want = cmath.exp(-1j * m * t0) * indicator_fourier(s, m)
        got = indicator_fourier(shifted, m)
        assert abs(got - want) < 1e-12, m


def test_full_torus_coefficients_vanish():
    s = normalize_bands([(0.0, TWO_PI)])
    assert indicator_fourier(s, 0) == complex(TWO_PI)
    for m in range(1, 10):
        assert abs(indicator_fourier(s, m)) < 1e-12


def test_json_round_trip():
    s = normalize_bands([(0.5, 1.5), (2.5, 4.0)])
    obj = s.to_json()
    assert list(obj) == ["bands_rad"]
    back = MultibandSet.from_json(obj)
    assert back == s
    # 2pi-unit parsing
    t = MultibandSet.from_json({"bands_2pi": [[0.0, 0.25]]})
    assert t.measure == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        MultibandSet.from_json({"wrong": []})
    # a bare pair list is in fractions of 2*pi; an object names exactly one unit
    assert MultibandSet.from_json([[0.0, 0.25]]) == t
    with pytest.raises(ValueError, match="exactly one of 'bands_rad' / 'bands_2pi'"):
        MultibandSet.from_json({"bands_2pi": [[0.0, 0.3]], "bands_rad": [[0.0, 1.0]]})


def test_translate_wraps():
    s = normalize_bands([(5.5, 6.0)])
    shifted = s.translate(0.5)  # (6.0, 6.5) straddles 2*pi
    assert shifted.measure == pytest.approx(0.5, abs=1e-12)
    assert len(shifted.arcs) == 2


def test_is_arc():
    # one arc on the circle, whether or not normalize_bands split it at 0
    for bands in ([(0.5, 2.0)], [(5.5, 7.0)], [(-0.5, 0.5)], [(0.0, TWO_PI)],
                  [(0.0, 1.0), (5.0, TWO_PI)], [(1e-13, 1.0), (5.0, TWO_PI)]):
        assert normalize_bands(bands).is_arc(), bands
    # two arcs apart, across 0 or elsewhere, and three pieces
    for bands in ([(0.3, 1.9), (3.0, 4.5)], [(1e-9, 1.0), (5.0, TWO_PI)],
                  [(0.0, 1.0), (5.0, 6.0)], [(0.0, 1.0), (2.0, 3.0), (5.0, TWO_PI)]):
        assert not normalize_bands(bands).is_arc(), bands


def test_numpy_float_inputs():
    s = normalize_bands(np.array([[0.0, 1.0]]))
    assert s.measure == pytest.approx(1.0)


@pytest.mark.parametrize("unit", ["deg", "RAD", ["rad"], None])
def test_unknown_units_raise_value_error(unit):
    with pytest.raises(ValueError, match="unit must be 'rad' or '2pi'"):
        normalize_bands([(0.0, 1.0)], unit=unit)


# ------------------------------------------ array formulas, bit for bit --

# m = 0, +-1, large m, the int64 extremes' neighbours, and a random spread
ORACLE_FREQUENCIES = np.concatenate([
    [0, 1, -1, 2, -7, 40, 10**6 + 3, -(10**9 + 7), 10**15 + 1, 2**53 + 1, 2**62 + 5,
     2**63 - 1, -(2**63 - 1)],
    np.random.default_rng(2).integers(-10**6, 10**6, 3000),
    np.random.default_rng(3).integers(-2**62, 2**62, 300),
]).astype(np.int64)

ORACLE_BANDS = {
    "one-arc": [(0.3, 1.9)],
    "from-zero": [(0.0, math.pi)],
    "arc-across-zero": [(5.5, 7.0)],
    "two-arcs": [(0.3, 1.9), (3.0, 4.5)],
    "three-arcs": [(0.3, 1.1), (2.0, 2.9), (4.0, 5.5)],
    "full-torus": [(0.0, TWO_PI)],
}


@pytest.mark.parametrize("bands", ORACLE_BANDS.values(), ids=ORACLE_BANDS.keys())
def test_indicator_table_matches_scalar_oracle_bitwise(bands):
    s = normalize_bands(bands)
    ms = [int(m) for m in ORACLE_FREQUENCIES]
    got = indicator_fourier(s, ORACLE_FREQUENCIES)
    assert got.dtype == complex and got.shape == (len(ms),)
    assert np.array_equal(oracle.bits(got), oracle.bits([oracle.multiband(s, m) for m in ms]))
    assert np.array_equal(oracle.bits(s.fourier_coefficient(ORACLE_FREQUENCIES)), oracle.bits(got))
    for a in s.arcs:
        want = [oracle.interval(a.start, a.end, m) for m in ms]
        got = interval_coefficient(a.start, a.end, ORACLE_FREQUENCIES)
        assert np.array_equal(oracle.bits(got), oracle.bits(want))


@pytest.mark.parametrize("length", [1e-3, 1.3, math.pi, 5.5, TWO_PI])
def test_centered_table_matches_scalar_oracle_bitwise(length):
    ms = [int(m) for m in ORACLE_FREQUENCIES]
    got = centered_interval_coefficient(length, ORACLE_FREQUENCIES)
    assert got.dtype == float
    assert np.array_equal(oracle.bits(got), oracle.bits([oracle.centered(length, m) for m in ms]))


@pytest.mark.parametrize("m", [0, 1, -1, 7, 2**63 - 1, -(2**63), 2**70, -(3**50), np.int64(-5)])
def test_scalar_frequency_gives_python_scalar_with_oracle_bits(m):
    # one frequency runs the array formula on a length-1 array; ints beyond int64 work
    s = normalize_bands([(0.3, 1.9), (3.0, 4.5)])
    got = indicator_fourier(s, m)
    assert type(got) is complex
    assert oracle.bits([got]).tolist() == oracle.bits([oracle.multiband(s, int(m))]).tolist()
    r = centered_interval_coefficient(1.3, m)
    assert type(r) is float
    assert oracle.bits([r]).tolist() == oracle.bits([oracle.centered(1.3, int(m))]).tolist()

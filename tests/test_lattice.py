"""Lattice partitions, section gaps, covering radii, and box spectra."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad

from rieszforge import BoxSet, LatticeWindow, TWO_PI, build_gram, \
    covering_radius, cube_partition, cycling_partition, extreme_eigs, \
    section_gaps, section_report
from rieszforge import lattice

import coefficient_oracle as oracle


def test_window_basics():
    w = LatticeWindow(lo=(0, 0), hi=(5, 11))
    assert w.dim == 2 and w.side_lengths == (6, 12)
    assert w.contains((3, 7)) and not w.contains((3, 12))
    assert len(list(w.points())) == 72
    w.require_aligned(3)
    with pytest.raises(ValueError):
        w.require_aligned(4)  # 6 % 4 != 0
    with pytest.raises(ValueError):
        LatticeWindow(lo=(0,), hi=(0, 1))
    with pytest.raises(ValueError):
        LatticeWindow(lo=(3,), hi=(1,))


def test_cycling_partition_small_square():
    # d=2, r=2 on [0,3]^2: 4 cubes, 2 segments each
    w = LatticeWindow(lo=(0, 0), hi=(3, 3))
    segs = cycling_partition(2, 2, w)
    assert len(segs) == 8
    cells = [c for s in segs for c in s.cells]
    assert sorted(cells) == sorted(w.points())        # exact cover
    assert len(set(cells)) == 16                      # disjoint
    # axis cycles with (k1+k2)/r mod 2: base (0,0) -> residue 0 -> axis 2
    by_base = {s.base: s.axis for s in segs}
    assert by_base[(0, 0)] == 2
    assert by_base[(2, 0)] == 1
    assert by_base[(0, 2)] == 1
    assert by_base[(2, 2)] == 2


def test_cycling_partition_criterion_size():
    w = LatticeWindow(lo=(0, 0), hi=(17, 17))
    segs = cycling_partition(2, 3, w)
    assert len(segs) == 108
    assert all(len(s.cells) == 3 for s in segs)
    cells = [c for s in segs for c in s.cells]
    assert len(set(cells)) == 324 == 18 * 18


def test_cycling_partition_1d():
    w = LatticeWindow(lo=(0,), hi=(8,))
    segs = cycling_partition(1, 3, w)
    assert len(segs) == 3
    assert all(s.axis == 1 for s in segs)
    assert segs[0].cells == ((0,), (1,), (2,))


def test_cycling_partition_validation():
    w = LatticeWindow(lo=(0, 0), hi=(4, 4))  # side 5 not divisible by 3
    with pytest.raises(ValueError):
        cycling_partition(2, 3, w)
    with pytest.raises(ValueError):
        cycling_partition(3, 3, LatticeWindow(lo=(0, 0), hi=(5, 5)))
    # negative but aligned bases are fine
    segs = cycling_partition(2, 3, LatticeWindow(lo=(-3, -3), hi=(2, 2)))
    assert len(segs) == 12


def test_segment_axis_period():
    # along any straight line of cubes, the axis pattern has period d
    w = LatticeWindow(lo=(0, 0), hi=(17, 17))
    segs = cycling_partition(2, 3, w)
    axis_at = {}
    for s in segs:
        axis_at[s.base] = s.axis
    for k2 in range(0, 18, 3):
        row = [axis_at[(k1, k2)] for k1 in range(0, 18, 3)]
        assert all(row[i] != row[i + 1] for i in range(5)), row


def test_cube_partition():
    w = LatticeWindow(lo=(0, 0), hi=(5, 5))
    cubes = cube_partition(2, 3, w)
    assert len(cubes) == 4
    assert all(len(c.cells) == 9 for c in cubes)
    cells = [c for cube in cubes for c in cube.cells]
    assert sorted(cells) == sorted(w.points())


def test_covering_radius_lattice():
    # every third point in each axis: worst case is one diagonal step away
    w = LatticeWindow(lo=(0, 0), hi=(6, 6))
    pts = [(x, y) for x in range(0, 7, 3) for y in range(0, 7, 3)]
    assert covering_radius(pts, w) == pytest.approx(math.sqrt(2))
    assert covering_radius([(3, 3)], w) == pytest.approx(3 * math.sqrt(2))
    with pytest.raises(ValueError):
        covering_radius([], w)
    with pytest.raises(ValueError, match="points of dimension 3 in a 2-D window"):
        covering_radius([(0, 0, 0)], w)


def test_covering_radius_1d():
    w = LatticeWindow(lo=(0,), hi=(10,))
    assert covering_radius([0, 5, 10], w) == pytest.approx(2.0)


def reference_covering_radius(points, window):
    """The largest over cells of the least squared distance to a point, then sqrt."""
    pts = [p if isinstance(p, tuple) else (p,) for p in points]
    return math.sqrt(max(min(sum((a - b) ** 2 for a, b in zip(cell, p)) for p in pts)
                         for cell in window.points()))


def kdtree_covering_radius(points, window):
    from scipy.spatial import cKDTree
    pts = np.array(points, dtype=float).reshape(len(points), window.dim)
    dist, _ = cKDTree(pts).query(np.array(list(window.points()), dtype=float))
    return float(dist.max())


def random_covering_cases():
    rng = np.random.default_rng(22)
    for case in range(45):
        d = case % 3 + 1
        lo = tuple(int(x) for x in rng.integers(-6, 6, d))
        hi = tuple(a + int(s) for a, s in zip(lo, rng.integers(0, (13, 11, 7)[d - 1], d)))
        w = LatticeWindow(lo=lo, hi=hi)
        cells = list(w.points())
        k = int(rng.integers(1, len(cells) + 1)) if case % 5 else min(len(cells), 3)
        pts = [cells[i] for i in rng.choice(len(cells), k, replace=False)]
        yield pytest.param([p[0] for p in pts] if d == 1 and case % 2 else pts, w,
                           id=f"d{d}-{case}")
    w = LatticeWindow(lo=(-4, -7, 2), hi=(1, -3, 6))
    corners = list(itertools.product(*zip(w.lo, w.hi)))
    yield pytest.param([(-4, -7, 2)], w, id="single-point")
    yield pytest.param(list(w.points()), w, id="every-cell")
    yield pytest.param(corners, w, id="corners")
    yield pytest.param(corners[:1] + corners[-1:], w, id="two-corners")
    yield pytest.param([(-5, 5)], LatticeWindow(lo=(-5, -5), hi=(5, 5)), id="negative-lo")


@pytest.mark.parametrize("pts, w", random_covering_cases())
def test_covering_radius_is_exact(pts, w):
    got = covering_radius(pts, w)
    assert got == reference_covering_radius(pts, w)
    assert got == kdtree_covering_radius(pts, w)


def test_covering_radius_passes(monkeypatch):
    bands = []
    banded = lattice._banded_squares
    monkeypatch.setattr(lattice, "_banded_squares", lambda g, b: bands.append(b) or banded(g, b))

    def radius(pts, w):
        bands.clear()
        got = covering_radius(pts, w)
        assert got == reference_covering_radius(pts, w)
        return got

    w = LatticeWindow(lo=(0, 0), hi=(40, 40))
    # at most 2B points are measured one at a time
    assert radius([(3, 3), (30, 11)], w) == math.sqrt(3 ** 2 + 37 ** 2) and bands == []
    # a one-per-cube selector settles in one banded pass
    sel = [(x + (x * y) % 5, y + (x + y) % 5) for x in range(0, 40, 5) for y in range(0, 40, 5)]
    radius(sel, LatticeWindow(lo=(0, 0), hi=(39, 39)))
    assert bands == [math.ceil(5 * math.sqrt(2))]
    # a dense block makes the first band 5; every cell has a lattice point within
    # Chebyshev distance 5 but the centres of the spacing-10 squares lie sqrt(50)
    # away, so a second pass reruns with band ceil(sqrt(50))
    pts = sorted({(10 * i, 10 * j) for i in range(5) for j in range(5)}
                 | set(itertools.product(range(10), range(12))))
    assert radius(pts, w) == math.sqrt(50) and bands == [5, 8]
    # cells that no point reaches within the band double it, up to the window's side
    pts = list(itertools.product(range(40), range(4)))
    assert radius(pts, LatticeWindow(lo=(0, 0), hi=(39, 39))) == 36.0
    assert bands == [5, 10, 20, 39]


@pytest.mark.parametrize("pts, match", [
    ([], "empty point set"),
    ([(0, 0), (7, 0)], r"point \(7, 0\) lies outside the window \(0, 0\)..\(6, 6\)"),
    ([(0, -1)], r"point \(0, -1\) lies outside"),
    ([(0, 0), (1.5, 0)], "point coordinates must be integers, got 1.5"),
    ([(0, True)], "point coordinates must be integers, got True"),
    ([(0, 0, 0)], "points of dimension 3 in a 2-D window"),
    ([0, 1], "points of dimension 1 in a 2-D window"),
    ([(0, 0), (1,)], "all tuples of one length"),
    ([(0, 0), 1], "all tuples of one length"),
])
def test_covering_radius_refuses_bad_points(pts, match):
    with pytest.raises(ValueError, match=match):
        covering_radius(pts, LatticeWindow(lo=(0, 0), hi=(6, 6)))
    if "outside" not in match and "window" not in match:  # the point checks are build_gram's too
        with pytest.raises(ValueError, match=match):
            build_gram(pts, BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),)))


def test_covering_radius_accepts_integral_values_of_any_type():
    w = LatticeWindow(lo=(-3,), hi=(9,))
    want = covering_radius([-1, 4], w)
    assert covering_radius([(-1,), (4,)], w) == want
    assert covering_radius(np.array([-1, 4]), w) == want
    assert covering_radius([-1.0, Fraction(4)], w) == want
    with pytest.raises(ValueError, match="outside"):
        covering_radius([10], w)


def test_one_per_cube_covering_bound():
    # any one-per-cube selector has covering radius <= s*sqrt(d)
    w = LatticeWindow(lo=(0, 0), hi=(17, 17))
    cubes = cube_partition(2, 3, w)
    rng = np.random.default_rng(4)
    for _ in range(10):
        sel = [cube.cells[int(rng.integers(9))] for cube in cubes]
        assert covering_radius(sel, w) <= 3 * math.sqrt(2) + 1e-12


def test_section_gaps():
    w = LatticeWindow(lo=(0, 0), hi=(9, 9))
    pts = [(0, 2), (3, 2), (9, 2), (4, 7)]
    st = section_gaps(pts, 1, (2,), w)      # row y=2, gaps in x
    assert st.gaps == (3, 6) and st.gamma == 6
    st = section_gaps(pts, 2, (4,), w)      # column x=4
    assert st.gamma == math.inf             # single point
    with pytest.raises(ValueError):
        section_gaps(pts, 3, (2,), w)
    with pytest.raises(ValueError):
        section_gaps(pts, 1, (2, 2), w)


def test_selector_section_gap_bound():
    # one-per-segment selectors stay syndetic on every 1-D section
    w = LatticeWindow(lo=(0, 0), hi=(17, 17))
    segs = cycling_partition(2, 3, w)
    rng = np.random.default_rng(12)
    selectors = [[s.cells[0] for s in segs], [s.cells[-1] for s in segs]]
    selectors += [[s.cells[int(rng.integers(3))] for s in segs] for _ in range(10)]
    for sel in selectors:
        for axis in (1, 2):
            for fixed in range(18):
                st = section_gaps(sel, axis, (fixed,), w)
                assert st.gaps, "section lost all points"
                assert st.gamma <= 12  # 2*d*r



def _report_by_sections(points, window):
    """Oracle: one section_gaps call per 1-D section of the window."""
    report = []
    for axis in range(1, window.dim + 1):
        others = [range(a, b + 1) for i, (a, b) in enumerate(zip(window.lo, window.hi))
                  if i != axis - 1]
        max_gap, thin = 0, 0
        for fixed in itertools.product(*others):
            st = section_gaps(points, axis, fixed, window)
            if st.gaps:
                max_gap = max(max_gap, int(st.gamma))
            else:
                thin += 1
        report.append({"axis": axis, "max_section_gap": max_gap,
                       "sections_under_two_points": thin})
    return report


def _one_per_segment(d, r, window, seed):
    rng = np.random.default_rng(seed)
    return [s.cells[int(rng.integers(r))] for s in cycling_partition(d, r, window)]


@pytest.mark.parametrize("d, r, lo, hi", [
    (1, 3, (0,), (11,)),
    (1, 2, (-6,), (5,)),
    (2, 2, (0, 0), (11, 11)),
    (2, 3, (-6, 0), (5, 8)),           # negative lo, unequal sides
    (2, 3, (0, 0), (5, 5)),
    (3, 2, (0, 0, 0), (3, 3, 3)),      # sparse sections
    (3, 2, (-4, 0, -2), (1, 5, 3)),
])
def test_section_report_matches_per_section_loop(d, r, lo, hi):
    w = LatticeWindow(lo=lo, hi=hi)
    for seed in range(3):
        sel = _one_per_segment(d, r, w, seed)
        assert section_report(sel, w) == _report_by_sections(sel, w)


def test_section_report_sparse_and_ignored_points():
    w = LatticeWindow(lo=(0, 0, 0), hi=(3, 3, 3))
    sel = _one_per_segment(3, 2, w, 0)
    report = section_report(sel, w)
    assert sum(a["sections_under_two_points"] for a in report) > 0
    # points outside the window and points of the wrong length are ignored
    noisy = sel + [(4, 0, 0), (0, -1, 2), (1, 1, 9), (1, 2), (0, 0, 0, 0)]
    assert section_report(noisy, w) == report == _report_by_sections(noisy, w)
    # no points: every section is sparse and the largest gap reads 0
    assert section_report([], w) == [
        {"axis": a, "max_section_gap": 0, "sections_under_two_points": 16}
        for a in (1, 2, 3)]


def test_section_report_rows_and_columns():
    w = LatticeWindow(lo=(-2, 0), hi=(7, 9))
    pts = [(-2, 2), (1, 2), (7, 2), (4, 7), (4, 9), (-2, 0)]
    assert section_report(pts, w) == [
        # rows y=2 (gaps 3, 6): one row of ten holds two points or more
        {"axis": 1, "max_section_gap": 6, "sections_under_two_points": 9},
        # columns x=-2 (gap 2) and x=4 (gap 2)
        {"axis": 2, "max_section_gap": 2, "sections_under_two_points": 8},
    ]


def test_box_set_basics():
    b = BoxSet(boxes=(((0.0, 1.0), (0.0, 2.0)),))
    assert b.dim == 2
    assert b.measure == pytest.approx(2.0)
    assert b.total_volume == pytest.approx(TWO_PI ** 2)
    with pytest.raises(ValueError):
        BoxSet(boxes=())
    with pytest.raises(ValueError):
        BoxSet(boxes=(((0.0, 1.0),), ((0.0, 1.0), (0.0, 1.0))))  # mixed dims
    with pytest.raises(ValueError):
        BoxSet(boxes=(((0.0, 7.0),),))  # outside [0, 2*pi]
    with pytest.raises(ValueError):
        BoxSet(boxes=(((0.0, 2.0), (0.0, 2.0)), ((1.0, 3.0), (1.0, 3.0))))  # overlap
    # endpoints are numbers, as for bands: float() would take these
    for bad in (("0.1", "0.5"), (False, True), (0.1, np.True_)):
        with pytest.raises(ValueError, match="^endpoints must be numbers, got "):
            BoxSet(boxes=[[bad]])
        with pytest.raises(ValueError, match=r"^boxes must be lists of \[lo, hi\] number pairs$"):
            BoxSet.from_json({"boxes_2pi": [[list(bad)]]})
    assert BoxSet(boxes=[[(Fraction(1, 2), np.float32(1.5))]]).measure == 1.0


def test_box_fourier_against_quadrature():
    b = BoxSet(boxes=(((0.2, 1.4), (0.5, 2.0)), ((3.0, 4.0), (2.5, 3.1))))
    ms = [(0, 0), (1, 0), (0, 2), (3, -1), (-2, -2), (5, 4)]
    for m, got in zip(ms, b.fourier_coefficient(np.array(ms))):
        def integrand_re(y, x, mx=m[0], my=m[1]):
            return math.cos(mx * x + my * y)

        def integrand_im(y, x, mx=m[0], my=m[1]):
            return -math.sin(mx * x + my * y)

        want = 0j
        for (x0, x1), (y0, y1) in b.boxes:
            re, _ = dblquad(integrand_re, x0, x1, y0, y1)
            im, _ = dblquad(integrand_im, x0, x1, y0, y1)
            want += re + 1j * im
        assert abs(got - want) < 1e-9, m


def test_box_fourier_conjugate_symmetry():
    b = BoxSet(boxes=(((0.2, 1.4), (0.5, 2.0)),))
    ms = np.array(list(itertools.product(range(-3, 4), repeat=2)))
    assert np.array_equal(b.fourier_coefficient(-ms), b.fourier_coefficient(ms).conj())
    with pytest.raises(ValueError):
        b.fourier_coefficient(np.array([[1]]))


ORACLE_BOXES = {
    "1-D": BoxSet(boxes=(((0.4, 2.5),), ((3.0, 6.0),))),
    "2-D": BoxSet(boxes=(((0.1, 1.7), (0.5, 2.9)), ((2.0, 5.0), (3.1, 6.0)))),
    "3-D": BoxSet(boxes=(((0.2, 1.1), (0.0, 3.0), (1.5, 4.0)),
                         ((1.1, 2.0), (3.0, TWO_PI), (0.0, 1.5)))),
}


@pytest.mark.parametrize("b", ORACLE_BOXES.values(), ids=ORACLE_BOXES.keys())
def test_box_table_matches_scalar_oracle_bitwise(b):
    # zero, +-1, small and large components of either sign, in every axis
    rng = np.random.default_rng(b.dim)
    ms = np.concatenate([
        np.array(list(itertools.product([0, 1, -1, 9], repeat=b.dim))),
        rng.integers(-60, 61, (2000, b.dim)),
        rng.integers(-10**9, 10**9, (300, b.dim)),
    ])
    got = b.fourier_coefficient(ms)
    assert got.dtype == complex and got.shape == (len(ms),)
    want = [oracle.box(b, tuple(int(x) for x in m)) for m in ms]
    assert np.array_equal(oracle.bits(got), oracle.bits(want))
    # one row, as a list of Python ints, runs the same formula
    one = b.fourier_coefficient([ms[-1].tolist()])
    assert one.shape == (1,) and oracle.bits(one).tolist() == oracle.bits(want[-1:]).tolist()
    with pytest.raises(ValueError, match=fr"^frequencies of shape \(3, {b.dim + 1}\) for a {b.dim}-D set"):
        b.fourier_coefficient(np.zeros((3, b.dim + 1), dtype=np.int64))


def test_box_gram_2d():
    # Gram over tuple frequencies is Hermitian PSD; full torus gives identity
    full = BoxSet(boxes=(((0.0, TWO_PI), (0.0, TWO_PI)),))
    pts = [(0, 0), (1, 0), (0, 1), (2, 2)]
    g = build_gram(pts, full, normalized=True)
    assert np.abs(g - np.eye(4)).max() < 1e-12
    b = BoxSet(boxes=(((0.0, 3.0), (0.0, 2.0)),))
    g = build_gram(pts, b)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.eigvalsh(g)[0] > -1e-10
    be = extreme_eigs(g)
    assert be.lambda_max <= b.total_volume + 1e-8


def test_box_json_round_trip():
    b = BoxSet(boxes=(((0.2, 1.4), (0.5, 2.0)),))
    obj = b.to_json()
    assert "boxes_rad" in obj
    back = BoxSet.from_json(obj)
    assert back == b
    scaled = BoxSet.from_json({"boxes_2pi": [[[0.0, 0.5], [0.0, 0.25]]]})
    assert scaled.measure == pytest.approx(math.pi * math.pi / 2)
    with pytest.raises(ValueError):
        BoxSet.from_json({"nope": []})
    # a bare box list is in fractions of 2*pi; an object names exactly one unit
    assert BoxSet.from_json([[[0.0, 0.5], [0.0, 0.25]]]) == scaled
    with pytest.raises(ValueError, match="exactly one of 'boxes_rad' / 'boxes_2pi'"):
        BoxSet.from_json({"boxes_2pi": [[[0.0, 0.5]]], "boxes_rad": [[[0.0, 1.0]]]})


def test_box_units_2pi_equal_rad():
    frac = [[[0.1, 0.35], [0.5, 0.9]], [[0.6, 0.8], [0.05, 0.2]]]
    rad = [[[lo * TWO_PI, hi * TWO_PI] for lo, hi in box] for box in frac]
    assert BoxSet.from_json({"boxes_2pi": frac}) == BoxSet.from_json({"boxes_rad": rad})

"""Gram matrices of exponential systems and finite-section certificates."""

import ctypes.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rieszforge import TWO_PI, BoxSet, LatticeWindow, build_gram, certify, \
    construct_riesz_set, covering_radius, dual_system, extreme_eigs, normalize_bands, \
    select_riesz
from rieszforge import gram
from rieszforge.cli import MAX_GRAM_N, main
from rieszforge.gram import _solved_gram
from rieszforge.torus import centered_interval_coefficient, interval_coefficient

import coefficient_oracle as oracle

HALF = normalize_bands([(0.0, math.pi)])  # S = [0, pi)
# build_gram and covering_radius read points through one parser: each bad-point case runs through both
LINE, PLANE = LatticeWindow(lo=(0,), hi=(6,)), LatticeWindow(lo=(0, 0), hi=(6, 6))


def test_two_point_gram_closed_form():
    g = build_gram([0, 1], HALF)
    # integral_0^pi e^{-it} dt = 2/i = -2i
    want = np.array([[math.pi, -2j], [2j, math.pi]])
    assert np.allclose(g, want, atol=1e-14)
    be = extreme_eigs(g)
    assert be.lambda_min == pytest.approx(math.pi - 2, abs=1e-12)
    assert be.lambda_max == pytest.approx(math.pi + 2, abs=1e-12)


def test_full_torus_gram_is_identity():
    s = normalize_bands([(0.0, TWO_PI)])
    g = build_gram(range(-16, 17), s)
    assert np.abs(g - TWO_PI * np.eye(33)).max() < 1e-12


def test_gram_is_hermitian_bit_exact():
    s = normalize_bands([(0.3, 1.9), (3.0, 4.5)])
    g = build_gram([-5, -2, 0, 1, 7, 11], s)
    assert np.array_equal(g, g.conj().T)


def test_gram_translation_invariance():
    # shifting all frequencies by an integer leaves the Gram unchanged
    s = normalize_bands([(0.2, 2.2)])
    pts = [0, 2, 3, 7]
    g0 = build_gram(pts, s)
    g1 = build_gram([p + 13 for p in pts], s)
    assert np.array_equal(g0, g1)


def test_gram_spectrum_rotation_preserves_eigenvalues():
    # rotating the spectrum conjugates the Gram by a diagonal unitary
    s = normalize_bands([(0.0, 2.0), (3.0, 4.0)])
    pts = [0, 1, 4, 9, 12]
    w0 = np.linalg.eigvalsh(build_gram(pts, s))
    w1 = np.linalg.eigvalsh(build_gram(pts, s.translate(0.9)))
    assert np.abs(w0 - w1).max() < 1e-10


def test_bessel_ceiling():
    # any integer frequencies on any spectrum: lambda_max <= 2*pi
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo = float(rng.uniform(0, 3))
        s = normalize_bands([(lo, lo + float(rng.uniform(0.3, 2.5)))])
        pts = sorted(rng.choice(200, size=12, replace=False).tolist())
        assert extreme_eigs(build_gram(pts, s)).lambda_max <= TWO_PI + 1e-8


# unequal per-axis spans and negative coordinates, so a wrong stride order in
# the difference coding shows up as wrong entries
ORACLE_CASES = [
    ([-7, -3, 0, 2, 9, 40], normalize_bands([(0.3, 1.9), (3.0, 4.5)])),
    ([(-3,), (0,), (5,)], BoxSet(boxes=(((0.4, 2.5),),))),
    ([(-2, 5), (0, -11), (3, 0), (1, 7), (-2, -1), (4, 3)],
     BoxSet(boxes=(((0.1, 1.7), (0.5, 2.9)), ((2.0, 5.0), (3.1, 6.0))))),
    ([(0, -1, 4), (-3, 2, 0), (1, 0, -6), (2, -2, 1), (-1, 3, 3)],
     BoxSet(boxes=(((0.2, 1.1), (0.0, 3.0), (1.5, 4.0)),))),
]


@pytest.mark.parametrize("pts,spectrum", ORACLE_CASES)
def test_gram_entrywise_oracle(pts, spectrum):
    g = build_gram(pts, spectrum)
    for j, pj in enumerate(pts):
        for k, pk in enumerate(pts):
            m = pk - pj if isinstance(pk, int) else tuple(b - a for a, b in zip(pj, pk))
            assert g[j, k] == spectrum.fourier_coefficient(np.reshape(m, (1, -1)))[0], (j, k)
    assert np.array_equal(g, g.conj().T)
    gn = build_gram(pts, spectrum, normalized=True)
    assert np.array_equal(gn, g / spectrum.total_volume)


def test_gram_rejects_int64_overflow():
    with pytest.raises(ValueError, match="points do not fit in 64-bit integers"):
        build_gram([0, 2**64], HALF)             # a point beyond int64
    for bad, window in (([0, 2**64], LINE), ([(0, 0), (-2**63 - 1, 0)], PLANE)):
        with pytest.raises(ValueError, match="points do not fit in 64-bit integers"):
            covering_radius(bad, window)
    with pytest.raises(ValueError):
        build_gram([-2**62, 2**62], HALF)        # difference 2**63 would wrap
    with pytest.raises(ValueError):
        build_gram([(0, 0), (2**40, -2**40)], BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),)))
    # the widest 1-D span whose differences fit int64 stays accepted
    g = build_gram([-2**62, 2**62 - 1], HALF)
    assert g[0, 1] == HALF.fourier_coefficient(np.array([[2**63 - 1]]))[0]


def test_normalized_gram():
    g = build_gram([0, 1], HALF, normalized=True)
    assert g[0, 0] == pytest.approx(0.5)
    s = normalize_bands([(0.0, TWO_PI)])
    gn = build_gram(range(5), s, normalized=True)
    assert np.abs(gn - np.eye(5)).max() < 1e-13


@pytest.mark.parametrize("pts, spectrum", [
    ([-7, -3, 0, 2, 9, 40], normalize_bands([(0.3, 1.9), (3.0, 4.5)])),
    ([0, 10**9, 5], HALF),  # unique-key gather
    ([(-2, 5), (0, -1), (3, 0), (1, 2)],
     BoxSet(boxes=(((0.1, 1.7), (0.5, 2.9)), ((2.0, 5.0), (3.1, 6.0))))),
])
def test_normalized_gram_is_the_gram_over_the_volume_bitwise(pts, spectrum):
    g = build_gram(pts, spectrum)
    assert np.array_equal(build_gram(pts, spectrum, normalized=True), g / spectrum.total_volume)


def test_gram_of_no_points_raises():
    with pytest.raises(ValueError, match="empty point set"):
        build_gram([], HALF)
    with pytest.raises(ValueError, match="empty point set"):
        covering_radius([], LINE)


def test_extreme_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        extreme_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        extreme_eigs(np.zeros((2, 3)))


def test_empty_matrix_is_refused():
    # the Hermiticity check refuses it, for the solvers and the selectors alike
    for solve in (extreme_eigs, dual_system, lambda g: select_riesz(g, [[0]], 0.1)):
        with pytest.raises(ValueError, match="expected a non-empty matrix"):
            solve(np.zeros((0, 0)))


def test_hermitian_check_sees_every_block():
    # larger than one row block; the defect sits off the diagonal blocks
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    h = a + a.conj().T
    extreme_eigs(h)
    h[150, 10] += 1e-6
    resid = float(np.abs(h - h.conj().T).max())  # the unblocked residual
    with pytest.raises(ValueError, match=f"residual {resid:.3e}"):
        extreme_eigs(h)
    with pytest.raises(ValueError):
        extreme_eigs(np.eye(3)[:, ::-1] * [1.0, 1.0, 2.0])  # one-block case


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_extreme_eigs_rejects_non_finite_entries(bad):
    g = np.eye(4, dtype=complex)
    g[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        extreme_eigs(g)
    with pytest.raises(ValueError, match="non-finite"):
        dual_system(g)
    # a symmetric pair of bad entries past the first row block, and a real matrix
    h = np.eye(100)
    h[90, 3] = h[3, 90] = abs(bad)
    with pytest.raises(ValueError, match="non-finite"):
        extreme_eigs(h)


def test_gram_rejects_non_integer_points():
    box = BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),))
    for parse_line, parse_plane in ((lambda p: build_gram(p, HALF), lambda p: build_gram(p, box)),
                                    (lambda p: covering_radius(p, LINE),
                                     lambda p: covering_radius(p, PLANE))):
        with pytest.raises(ValueError, match="points must be integers, got 1.7"):
            parse_line([0, 1.7])
        with pytest.raises(ValueError, match="point coordinates must be integers, got 0.5"):
            parse_plane([(0, 0), (1, 0.5)])
        with pytest.raises(ValueError, match="nan"):
            parse_line([0, float("nan")])
        with pytest.raises(ValueError, match="True"):
            parse_line([0, True])
    # integral values of any numeric type keep working
    want = build_gram([0, 1, 5], HALF)
    assert np.array_equal(build_gram([0.0, 1.0, 5.0], HALF), want)
    assert np.array_equal(build_gram(np.array([0, 1, 5]), HALF), want)
    assert np.array_equal(build_gram([np.int64(0), Fraction(1), 5], HALF), want)
    box = BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),))
    want = build_gram([(0, 0), (1, 2)], box)
    assert np.array_equal(build_gram([(0.0, np.int64(0)), (Fraction(1), 2.0)], box), want)
    assert np.array_equal(build_gram(np.array([[0, 0], [1, 2]]), box), want)


@pytest.mark.parametrize("pts", [[(0, 1), (2,)], [(0, 1, 2), (3,)], [(0, 1), 3]],
                         ids=["ragged-2-1", "ragged-3-1", "mixed"])
def test_gram_rejects_ragged_and_mixed_points(pts):
    box = BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),))
    for parse in (lambda p: build_gram(p, box), lambda p: covering_radius(p, PLANE)):
        with pytest.raises(ValueError, match="all integers or all tuples of one length") as err:
            parse(pts)
        assert "inhomogeneous" not in str(err.value)


def test_tuple_points_refuse_bools_and_fractions():
    box = BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),))
    for parse in (lambda p: build_gram(p, box), lambda p: covering_radius(p, PLANE)):
        with pytest.raises(ValueError, match="True"):
            parse([(0, 0), (True, 1)])
        with pytest.raises(ValueError, match="integers"):
            parse([(0, 0), (Fraction(1, 2), 1)])
        with pytest.raises(ValueError, match="integers"):
            parse([(0, 0), (1, 2.5)])


@pytest.mark.parametrize("bands", [[(0.0, 0.45)], [(0.05, 0.25), (0.5, 0.7)]],
                         ids=["one-arc", "two-arcs"])
def test_certify_does_not_recheck_its_own_grams(monkeypatch, capsys, bands):
    checked = []
    real = gram._check_hermitian
    monkeypatch.setattr(gram, "_check_hermitian", lambda h: checked.append(h.shape) or real(h))
    s = normalize_bands(bands, unit="2pi")
    _, points = construct_riesz_set(s, (-200, 200))
    cert = certify(points, s, threshold=1e-3, schedule=(16, 32))
    # constructed sets are not point-symmetric, so every section is solved whole
    assert {b.solver for b in cert.bounds} == {"real-symmetric" if s.is_arc() else "hermitian"}
    assert main(["certify", "--measure", "0.45", "--schedule", "16,32"]) in (0, 3)
    capsys.readouterr()
    assert checked == []
    extreme_eigs(np.eye(2))  # the public solver still checks what it is given
    assert checked == [(2, 2)]


def test_partition_does_not_recheck_its_box_gram(monkeypatch, capsys):
    checked = []
    real = gram._check_hermitian
    monkeypatch.setattr(gram, "_check_hermitian", lambda h: checked.append(h.shape) or real(h))
    assert main(["partition", "--dim", "2", "--r", "2", "--window", "8",
                 "--boxes", "[[[0.0, 0.5], [0.0, 0.5]]]"]) == 0
    quality = json.loads(capsys.readouterr().out)["quality"]
    assert 0 < quality["lambda_min"] <= quality["lambda_max"]
    assert checked == []


def test_interlacing_on_nested_sections():
    s = normalize_bands([(0.0, 0.45)], unit="2pi")
    pts = list(range(-64, 65))
    order = sorted(pts, key=lambda x: (abs(x), x))
    prev_min, prev_max = math.inf, -math.inf
    for n in (8, 16, 32, 64):
        be = extreme_eigs(build_gram(sorted(order[:n]), s))
        assert be.lambda_min <= prev_min + 1e-10
        assert be.lambda_max >= prev_max - 1e-10
        prev_min, prev_max = be.lambda_min, be.lambda_max


def test_dual_system_reciprocity_and_involution():
    s = normalize_bands([(0.0, 0.8 * TWO_PI)])
    pts = [0, 1, 5, 8, 12]
    g = build_gram(pts, s)
    d = dual_system(g)
    wg = np.linalg.eigvalsh(g)
    wd = np.linalg.eigvalsh(d)
    assert wd[-1] == pytest.approx(1.0 / wg[0], rel=1e-10)
    assert wd[0] == pytest.approx(1.0 / wg[-1], rel=1e-10)
    # inverse of the inverse comes back
    assert np.abs(dual_system(d) - g).max() < 1e-8


DUAL_PROBE = """
import hashlib
from rieszforge import build_gram, dual_system, normalize_bands

n = 256
g = build_gram(range(0, 3 * n, 3), normalize_bands([(0.0, 5.5)]), normalized=True)
print(hashlib.sha256(dual_system(g).tobytes()).hexdigest())
"""


def test_dual_system_does_not_depend_on_blas_threads():
    # unpinned, np.linalg.inv gives other bits at 2 threads from n = 256 on;
    # select --mode tight searches its stage 3 on dual_system's output
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(gram.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", DUAL_PROBE], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_dual_system_rejects_singular():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        dual_system(g)


def test_certify_supported():
    s = normalize_bands([(0.0, 0.45)], unit="2pi")
    from rieszforge import construct_riesz_set
    _, pts = construct_riesz_set(s, (-400, 400))
    cert = certify(pts, s, threshold=1e-3 * TWO_PI, schedule=(16, 32, 64, 128))
    assert cert.verdict == "supported"
    assert cert.lambda_min[-1] > 0
    assert cert.final_drop <= 0.05
    assert len(cert.bounds) == 4


def test_certify_refuted():
    # the full integer lattice on a half torus is overcomplete
    pts = list(range(-40, 41))
    cert = certify(pts, HALF, threshold=1e-3 * TWO_PI, schedule=(16, 32, 64))
    assert cert.verdict == "refuted"
    assert cert.lambda_min[-1] < cert.refute_floor


def test_certify_inconclusive():
    # absurdly high threshold cannot be met
    s = normalize_bands([(0.0, 0.45)], unit="2pi")
    from rieszforge import construct_riesz_set
    _, pts = construct_riesz_set(s, (-300, 300))
    cert = certify(pts, s, threshold=10.0, schedule=(16, 32))
    assert cert.verdict == "inconclusive"


def test_certify_validation():
    pts = list(range(50))
    with pytest.raises(ValueError):
        certify(pts, HALF, threshold=0.0)
    with pytest.raises(ValueError):
        certify(pts, HALF, threshold=0.1, schedule=(32, 16))
    with pytest.raises(ValueError):
        certify(pts, HALF, threshold=0.1, schedule=(16, 64))  # needs 64 elements
    with pytest.raises(ValueError):
        certify([0, 0, 1], HALF, threshold=0.1, schedule=(2,))
    with pytest.raises(ValueError):
        certify(pts, HALF, threshold=0.1, schedule=(16, 32), drop_ratio=1.5)


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_certify_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError):
        certify(list(range(50)), HALF, threshold=threshold, schedule=(16,))


def test_certificate_serialization():
    pts = list(range(0, 120, 3))
    cert = certify(pts, HALF, threshold=0.1, schedule=(16, 32), source="test")
    obj = cert.to_json()
    assert set(obj) == {
        "source", "S", "normalized", "schedule", "lambda_min", "lambda_max",
        "lambda_min_normalized", "lambda_max_normalized", "verdict", "threshold",
        "drop_ratio", "refute_floor", "final_drop", "eig_tol", "note"}
    assert obj["normalized"] is False
    assert obj["refute_floor"] == 1e-6 * TWO_PI
    assert obj["note"].startswith("finite sections bound")
    assert obj["schedule"] == [16, 32]
    assert obj["lambda_min_normalized"] == [v / TWO_PI for v in obj["lambda_min"]]
    assert obj["lambda_max_normalized"] == [v / TWO_PI for v in obj["lambda_max"]]
    csv = cert.csv_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "window,lambda_min,lambda_max"
    assert len(lines) == 3
    # repr round-trip keeps full precision
    assert float(lines[1].split(",")[1]) == cert.lambda_min[0]


def test_certify_centered_ordering():
    # elements are consumed centered by |x|, so the first section of a
    # symmetric set straddles zero
    pts = list(range(-100, 101))
    cert = certify(pts, HALF, threshold=0.1, schedule=(16,))
    g16 = build_gram(sorted(pts, key=lambda x: (abs(x), x))[:16], HALF)
    assert cert.lambda_min[0] == pytest.approx(float(np.linalg.eigvalsh(g16)[0]), abs=1e-12)


def test_certify_orders_by_magnitude_then_value(monkeypatch):
    # each section is a prefix of the (|x|, x) order, past int64 too, where -x comes
    # before x; x and -x are distinct elements, and a repeat anywhere is refused
    rng = np.random.default_rng(3)
    far = {2**63, -2**63, 1 - 2**63, 2**70, -2**70}
    pts = list({int(x) for x in rng.integers(-40, 41, 70)} | far)
    rng.shuffle(pts)
    sections = []
    est = gram.BoundsEstimate(1.0, 1.0, 1e-12, "real-symmetric", "one-stage")
    monkeypatch.setattr(gram, "_section_bounds", lambda p, s: sections.append(p) or est)
    certify(pts, HALF, threshold=0.1, schedule=(3, len(pts)))
    want = sorted(pts, key=lambda x: (abs(x), x))
    assert sections == [want[:3], want]
    for repeated in ([5, -3, 5], [2**70, 0, 2**70], [0, 1, -1, 0]):
        with pytest.raises(ValueError, match="duplicate elements"):
            certify(repeated, HALF, threshold=0.1, schedule=(2,))


# ------------------------------------------------ table gather and real path --

class CountingSpectrum:
    """A spectrum that counts the frequencies its coefficient is evaluated at."""

    def __init__(self, spectrum):
        self.spectrum, self.entries = spectrum, 0
        self.total_volume = spectrum.total_volume

    def fourier_coefficient(self, m):
        self.entries += len(m)
        return self.spectrum.fourier_coefficient(m)


def test_gather_takes_the_table_only_for_narrow_spans():
    narrow = CountingSpectrum(HALF)
    build_gram([0, 1, 5], narrow)       # K = 5 <= n^2 - 1: one entry per d in 0..5,
    assert narrow.entries == 6          # where unique keys would take 0, 1, 4, 5
    wide = CountingSpectrum(HALF)
    g = build_gram([0, 10**9], wide)    # K + 1 > n^2: the unique keys 0 and 10**9
    assert wide.entries == 2
    assert g[0, 1] == HALF.fourier_coefficient(np.array([[10**9]]))[0]


# a far point widens the span past n^2, so the leading block of the widened
# Gram comes from the unique-key branch and the small Gram from the table
TABLE_VS_UNIQUE = [
    ([-7, -3, 0, 2, 9, 11], 10**9, normalize_bands([(0.3, 1.9), (3.0, 4.5)])),
    ([(-2, 5), (0, -1), (3, 0), (1, 2), (-2, -1), (4, 3)], (10**4, -10**4),
     BoxSet(boxes=(((0.1, 1.7), (0.5, 2.9)), ((2.0, 5.0), (3.1, 6.0))))),
]


@pytest.mark.parametrize("pts,far,spectrum", TABLE_VS_UNIQUE)
@pytest.mark.parametrize("normalized", [False, True])
def test_table_gather_matches_unique_gather_bitwise(pts, far, spectrum, normalized):
    counter = CountingSpectrum(spectrum)
    wide = build_gram(pts + [far], counter, normalized=normalized)
    assert counter.entries <= (len(pts) + 1) ** 2 // 2 + 1  # the unique branch ran
    n = len(pts)
    assert np.array_equal(build_gram(pts, spectrum, normalized=normalized), wide[:n, :n])


# 2-D points whose largest key difference is the int64 maximum itself: axis 1
# spans 2**31 (radix 2**32 + 1) and axis 0 spans 2**31 - 1, so the key of
# (2**31 - 1, 2**31) plus half a radix would wrap
_S1 = 2**31
_CORNERS = [(0, 0), (0, _S1), (_S1 - 1, 0), (_S1 - 1, _S1)]
assert (_S1 - 1) * (2 * _S1 + 1) + _S1 == 2**63 - 1

SCALAR_ORACLE_CASES = [
    *ORACLE_CASES,
    *[(pts + [far], spectrum) for pts, far, spectrum in TABLE_VS_UNIQUE],  # unique branch
    ([0, 10**9, 5], HALF),
    ([-2**62, 2**62 - 1], HALF),  # difference 2**63 - 1
    ([2**63 - 1, 0, 2**63 - 2], normalize_bands([(0.3, 1.9), (3.0, 4.5)])),
    (_CORNERS, BoxSet(boxes=(((0.1, 1.7), (0.5, 2.9)), ((2.0, 5.0), (3.1, 6.0))))),
    # axes of span 0 before one whose radix 2**63 + 1 passes int64
    ([(0, -2**61), (0, 2**61)], BoxSet(boxes=(((0.1, 1.7), (0.5, 2.9)),))),
    ([(7, 0, -2**61), (7, 0, 2**61), (7, 0, 5)],
     BoxSet(boxes=(((0.2, 1.1), (0.0, 3.0), (1.5, 4.0)),))),
    ([(-2**62,), (2**62 - 1,)], BoxSet(boxes=(((0.4, 2.5),),))),
    ([(5, -3, 0), (-4, 2, 7), (0, 0, 0), (3, 9, -8)] + [(0, 10**5, 0)],
     BoxSet(boxes=(((0.2, 1.1), (0.0, 3.0), (1.5, 4.0)),))),
]


def _differences(pts):
    return [[pk - pj if isinstance(pk, int) else tuple(b - a for a, b in zip(pj, pk))
             for pk in pts] for pj in pts]


@pytest.mark.parametrize("pts,spectrum", SCALAR_ORACLE_CASES)
def test_gram_matches_scalar_oracle_bitwise(pts, spectrum):
    want = [[oracle.coefficient(spectrum, m) for m in row] for row in _differences(pts)]
    assert np.array_equal(oracle.bits(build_gram(pts, spectrum)), oracle.bits(want))


@pytest.mark.parametrize("pts", [[-7, -3, 0, 2, 9, 40], [-7, -3, 0, 2, 9, 11, 10**9],
                                 [-2**62, 2**62 - 1]], ids=["table", "unique", "int64"])
@pytest.mark.parametrize("bands", [[(0.3, 1.9)], [(0.0, TWO_PI)]], ids=["one-arc", "full"])
def test_real_section_matches_scalar_oracle_bitwise(pts, bands):
    s = normalize_bands(bands)
    want = [[oracle.centered(s.measure, m) for m in row] for row in _differences(pts)]
    assert np.array_equal(oracle.bits(_solved_gram(pts, s)), oracle.bits(want))


def test_wide_gram_evaluates_its_table_in_chunks():
    # the peak may hold the output, one n x n int64 array (the differences, sorted
    # in place), the unique keys and their values, and one chunk of the
    # coefficient formulas' temporaries; the whole table at once adds ~20 MB
    rng = np.random.default_rng(7)
    pts = rng.choice(np.arange(-10**6, 10**6 + 1), 1024, replace=False).tolist()
    s = normalize_bands([(0.3, 1.9), (3.0, 4.5)])
    d = np.sort(np.subtract.outer(pts, pts), axis=None)
    unique = 1 + int(np.count_nonzero(d[1:] != d[:-1]))
    del d
    build_gram(pts[:64], s)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        g = build_gram(pts, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(pts)
    assert g.shape == (n, n)
    assert peak <= n * n * (16 + 8) + unique * (8 + 16) + 2**20


def test_centered_interval_coefficient():
    length, ms = 1.3, np.array([1, 2, 7, 40])
    assert centered_interval_coefficient(length, np.array([0])).tolist() == [length]
    r = centered_interval_coefficient(length, ms)
    assert np.array_equal(r, centered_interval_coefficient(length, -ms))
    for lo in (0.0, 0.4, 4.0):
        c = interval_coefficient(lo, lo + length, ms)
        assert np.all(np.abs(c - np.exp(-1j * ms * (lo + length / 2)) * r) < 1e-14)


def _point_symmetric(section):
    return len(section) > 1 and all(p + q == section[0] + section[-1]
                                    for p, q in zip(section, section[::-1]))


def _progression(section):
    return len(section) >= 3 and len({q - p for p, q in zip(section, section[1:])}) == 1


def _assert_matches_complex_oracle(pts, s, schedule):
    cert = certify(pts, s, threshold=1e-3, schedule=schedule)
    order = sorted(pts, key=lambda x: (abs(x), x))
    for n, b in zip(schedule, cert.bounds):
        section = sorted(order[:n])
        folded, full = ("centrosymmetric-split", "real-symmetric") if s.is_arc() \
            else ("centrohermitian-real", "hermitian")
        if s.is_arc() and _progression(section):
            assert b.solver == "prolate-tridiagonal"
        elif _progression(section) and "stemr" in gram._openblas() \
                and gram._symbol_bounds(section[1] - section[0], n, s) is not None:
            assert b.solver == "toeplitz-symbol"  # several arcs, where the bracket holds
        else:
            assert b.solver == (folded if _point_symmetric(section) else full)
        w = np.linalg.eigvalsh(build_gram(section, s))
        # a backward-stable solver errs by eps * ||G||, so relative to lambda_max
        scale = max(abs(w[-1]), 1.0)
        assert abs(b.lambda_min - w[0]) <= 1e-12 * scale, n
        assert abs(b.lambda_max - w[-1]) <= 1e-12 * scale, n


def test_real_path_matches_complex_gram_on_random_arcs():
    rng = np.random.default_rng(11)
    for _ in range(8):
        lo = float(rng.uniform(0, TWO_PI))
        length = float(rng.uniform(0.2, TWO_PI - lo))
        pts = sorted(rng.choice(np.arange(-300, 300), size=80, replace=False).tolist())
        _assert_matches_complex_oracle(pts, normalize_bands([(lo, lo + length)]), (20, 40, 80))


@pytest.mark.parametrize("step", [1, 2, 3, 5])
def test_real_path_matches_complex_gram_on_progressions(step):
    s = normalize_bands([(0.35, 0.9)], unit="2pi")
    _assert_matches_complex_oracle(list(range(-64 * step, 64 * step + 1, step)), s, (16, 64, 128))


@pytest.mark.parametrize("band", [(0.05, 0.45), (0.2, 0.8)])
def test_real_path_matches_complex_gram_on_constructed_sets(band):
    s = normalize_bands([band], unit="2pi")
    _, pts = construct_riesz_set(s, (-600, 600))
    _assert_matches_complex_oracle(list(pts), s, (16, 64, 128))


def test_certify_bounds_invariant_under_arc_translation():
    pts = list(range(-150, 151, 2))
    s = normalize_bands([(0.5, 2.0)])
    # dyadic endpoints keep the length exact, so the bounds agree bit for bit
    exact = certify(pts, s.translate(2.25), threshold=0.1, schedule=(16, 64, 128))
    base = certify(pts, s, threshold=0.1, schedule=(16, 64, 128))
    assert exact.bounds == base.bounds
    for t in (0.1, 1.7, 3.3):
        moved = certify(pts, s.translate(t), threshold=0.1, schedule=(16, 64, 128))
        assert moved.lambda_min == pytest.approx(base.lambda_min, rel=1e-12)
        assert moved.lambda_max == pytest.approx(base.lambda_max, rel=1e-12)


# normalize_bands splits an arc across 0 in two, but it is one arc on the
# circle, so it takes the real path; without 7 no section below is
# point-symmetric, so neither is folded
@pytest.mark.parametrize("bands, real", [([(0.3, 1.9), (3.0, 4.5)], False), ([(5.5, 7.0)], True)],
                         ids=["two-arcs", "arc-across-zero"])
def test_multiband_certify_uses_the_hermitian_solver(bands, real):
    s = normalize_bands(bands)
    assert len(s.arcs) == 2
    pts = [p for p in range(-40, 41) if p != 7]
    if real:
        _assert_matches_complex_oracle(pts, s, (16, 32))
        return
    cert = certify(pts, s, threshold=0.1, schedule=(16, 32))
    assert [b.solver for b in cert.bounds] == ["hermitian", "hermitian"]
    g = build_gram(sorted(sorted(pts, key=lambda x: (abs(x), x))[:32]), s)
    assert cert.bounds[-1] == extreme_eigs(g)


# ---------------------------------------------------- point-symmetric folds --

FOLD_SPECTRA = [[(0.35 * TWO_PI, 0.9 * TWO_PI)], [(5.5, 7.0)], [(0.3, 1.9), (3.0, 4.5)]]
FOLD_SETS = {
    "progression": (list(range(-90, 91, 3)), (2, 3, 16, 17, 40, 41)),  # even and odd n
    "off-centre": (list(range(-7, 200, 4)), (20, 21)),  # a progression not centred on 0
    "odd": ([3, 5, 10, 15, 17], (5,)),  # symmetric about 10, not a progression
    "even": ([3, 5, 9, 11, 15, 17], (6,)),
}
# on one arc a progression's sections take the commuting tridiagonal, so there
# each progression, less one pair, keeps the folds covered: its sections at
# these sizes are point-symmetric and, past 3 points, not progressions
ARC_FOLD_SETS = {
    "progression": ([p for p in range(-90, 91, 3) if abs(p) != 3], (2, 3, 5, 17, 41)),  # odd n
    "off-centre": ([p for p in range(-7, 200, 4) if p not in (13, 41)], (10, 16)),  # even n
}


def _less_a_pair(pts, i):
    """pts sorted, less the i-th point from each end: point symmetry is kept."""
    pts = sorted(pts)
    return pts[:i] + pts[i + 1:len(pts) - 1 - i] + pts[len(pts) - i:]


@pytest.mark.parametrize("bands", FOLD_SPECTRA, ids=["one-arc", "arc-across-zero", "two-arcs"])
@pytest.mark.parametrize("case", FOLD_SETS)
def test_point_symmetric_sections_match_the_full_solve(bands, case):
    s = normalize_bands(bands)
    pts, schedule = ARC_FOLD_SETS[case] if s.is_arc() and case in ARC_FOLD_SETS \
        else FOLD_SETS[case]
    order = sorted(pts, key=lambda x: (abs(x), x))
    assert all(_point_symmetric(sorted(order[:n])) for n in schedule)
    _assert_matches_complex_oracle(pts, s, schedule)


@pytest.mark.parametrize("bands", [[(0.5, 2.0)], [(0.3, 1.9), (3.0, 4.5)]], ids=["one-arc", "two-arcs"])
@pytest.mark.parametrize("pts", [[3, 5, 10, 15, 18], [-6, -3, 0, 3, 6, 10]])
def test_almost_symmetric_sections_take_the_full_solve(bands, pts):
    s = normalize_bands(bands)
    assert not _point_symmetric(pts)
    cert = certify(pts, s, threshold=1e-3, schedule=(len(pts),))
    assert cert.bounds == (extreme_eigs(_solved_gram(pts, s)),)
    assert cert.bounds[0].solver == ("real-symmetric" if s.is_arc() else "hermitian")


@pytest.mark.parametrize("bands", [[(0.5, 2.0)], [(0.3, 1.9), (3.0, 4.5)]], ids=["one-arc", "two-arcs"])
def test_folded_tol_uses_the_full_section_size(bands):
    # at n = 801 the achieved-accuracy estimate n*eps*max|lambda| passes the 1e-12 floor;
    # less a pair, the points are no progression, so one arc folds them too
    s = normalize_bands(bands)
    pts = _less_a_pair(range(-401, 402), 201)
    b = certify(pts, s, threshold=1e-3, schedule=(801,)).bounds[0]
    assert b.solver in ("centrosymmetric-split", "centrohermitian-real")
    want = 801 * np.finfo(float).eps * max(abs(b.lambda_min), abs(b.lambda_max), 1.0)
    assert want > 1e-12
    assert b.tol == want


def _folds_cut_from_the_gram(g):
    """The folded parts cut from the whole section's quadrants: the oracle for
    the folds that _section_bounds gathers from the coefficient table."""
    n = len(g)
    m, h = n // 2, n - n // 2
    a, bj = g[:m, :m], g[:m, ::-1][:, :m]
    plus, k = np.empty((h, h)), np.empty((h, m))
    np.add(a.real, bj.real, out=plus[:m, :m])
    np.subtract(bj.imag, a.imag, out=k[:m])
    minus = a.real - bj.real
    if h > m:
        x = math.sqrt(2.0) * g[:m, m]
        plus[m, :m] = plus[:m, m] = x.real
        plus[m, m] = g[m, m].real
        k[m] = x.imag
    return [plus, minus] if np.isrealobj(g) else [np.block([[plus, k], [k.T, minus]])]


# 301 and 300 points span several gather blocks, progressions less a pair, so one
# arc folds them; the far pairs take the unique-difference table
FOLD_TABLE_SETS = [_less_a_pair(range(-906, 907, 6), 76), _less_a_pair(range(-11, 1197, 4), 150),
                   [-10**6, -3, 0, 3, 10**6], [-10**6, -3, 3, 10**6]]


@pytest.mark.parametrize("bands", FOLD_SPECTRA, ids=["one-arc", "arc-across-zero", "two-arcs"])
@pytest.mark.parametrize("pts", FOLD_TABLE_SETS, ids=["odd", "even", "unique-odd", "unique-even"])
def test_folds_from_the_table_match_the_folds_cut_from_the_gram(monkeypatch, bands, pts):
    s = normalize_bands(bands)
    assert _point_symmetric(pts)
    assert (gram._solved_table(pts, s)[1] is None) == (len(pts) > 5)  # the table kind covered
    parts = []
    monkeypatch.setattr(gram, "_bounds", lambda p, n, solver: parts.extend(p))
    gram._section_bounds(pts, s)
    want = _folds_cut_from_the_gram(_solved_gram(pts, s))
    assert len(parts) == len(want)
    for got, cut in zip(parts, want):  # the upper triangles, the ones _extremes reads
        upper = np.triu_indices(len(cut))
        assert np.array_equal(oracle.bits(got[upper]), oracle.bits(cut[upper]))


@pytest.mark.parametrize("bands", FOLD_SPECTRA, ids=["one-arc", "arc-across-zero", "two-arcs"])
@pytest.mark.parametrize("pts", FOLD_TABLE_SETS, ids=["odd", "even", "unique-odd", "unique-even"])
def test_folds_write_every_entry_the_solver_reads(monkeypatch, bands, pts):
    # every array np.empty hands out is NaN-filled, so an entry the fold leaves unwritten
    # on or above a part's diagonal, where _extremes reads, shows up as NaN
    empty = np.empty

    def nan_empty(*args, **kwargs):
        a = empty(*args, **kwargs)
        if a.dtype.kind in "fc":
            a.fill(np.nan)
        return a

    parts = []
    monkeypatch.setattr(gram, "_bounds", lambda p, n, solver: parts.extend(p))
    monkeypatch.setattr(gram.np, "empty", nan_empty)
    gram._section_bounds(pts, normalize_bands(bands))
    monkeypatch.undo()
    assert len(parts) == (2 if normalize_bands(bands).is_arc() else 1)
    for part in parts:
        assert not np.isnan(part[np.triu_indices(len(part))]).any()


@pytest.mark.parametrize("bands, bound", [([(0.0, 0.6 * TWO_PI)], 0.6),
                                          ([(0.3, 1.9), (3.0, 4.5)], 1.2)],
                         ids=["one-arc", "two-arcs"])
def test_folded_sections_never_build_the_whole_gram(bands, bound):
    # the folded parts take 4 n^2 bytes on one arc and 8 n^2 on several, against
    # 8 n^2 and 16 n^2 for the whole section; the gather blocks add a few percent.
    # tracemalloc sees numpy's arrays, not the LAPACK workspace inside eigvalsh
    # a progression less a pair, so one arc folds it too
    s, n = normalize_bands(bands), 1024
    pts = _less_a_pair(range(-n - 1, n + 2, 2), n // 2)
    gram._section_bounds(pts[480:-480], s)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        b = gram._section_bounds(pts, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.solver == ("centrosymmetric-split" if s.is_arc() else "centrohermitian-real")
    assert peak <= bound * 8 * n * n


# boxes of each dimension, none symmetric about 0: every box Gram is complex
BOXES = {d: BoxSet(boxes=((((0.3, 2.1), (1.0, 1.8), (0.2, 4.0))[:d]),
                          (((3.0, 5.5), (2.5, 6.0), (4.5, 6.2))[:d])))
         for d in (1, 2, 3)}


def _mirrored(rng, d, count, side):
    """count random d-D points and their mirror images through a centre, in
    random order: a point-symmetric set."""
    half = rng.integers(-side, side + 1, (count, d))
    centre = rng.integers(-side, side + 1, d)
    pts = sorted(set(map(tuple, np.concatenate((half, centre - half)).tolist())))
    return [pts[i] for i in rng.permutation(len(pts))]


@pytest.mark.parametrize("d", [2, 3])
def test_shuffled_point_symmetric_tuples_fold(d):
    rng = np.random.default_rng(d)
    pts = _mirrored(rng, d, 60, 6)
    b = gram._section_bounds(pts, BOXES[d])
    assert b.solver == "centrohermitian-real"
    want = extreme_eigs(build_gram(pts, BOXES[d]))
    assert abs(b.lambda_min - want.lambda_min) <= b.tol
    assert abs(b.lambda_max - want.lambda_max) <= b.tol
    # one point moved: no longer point-symmetric, solved whole
    pts[0] = tuple(x + 20 for x in pts[0])
    b = gram._section_bounds(pts, BOXES[d])
    assert b.solver == "hermitian"
    assert b == extreme_eigs(build_gram(sorted(pts), BOXES[d]))


def test_tuple_folds_never_build_the_complex_gram():
    # the fold is one real n x n array, 8 n^2 bytes, against 16 n^2 for the
    # complex Gram; the table and the gather blocks add a few percent
    pts = _mirrored(np.random.default_rng(5), 2, 600, 24)
    n = len(pts)
    gram._section_bounds(pts[:64], BOXES[2])  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        b = gram._section_bounds(pts, BOXES[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.solver == "centrohermitian-real"
    assert peak <= 1.2 * 8 * n * n


@pytest.mark.parametrize("bands", FOLD_SPECTRA, ids=["one-arc", "arc-across-zero", "two-arcs"])
# a progression less a pair, so on one arc its point-symmetric sections fold
@pytest.mark.parametrize("pts", [_less_a_pair(range(-90, 91, 3), 29), [3, 5, 10, 15, 17, 40, -2, 8]],
                         ids=["progression", "scattered"])
def test_sections_in_certify_order_match_the_sorted_sections_bitwise(bands, pts):
    s = normalize_bands(bands)
    order = sorted(pts, key=lambda x: (abs(x), x))
    for n in range(1, len(order) + 1):
        assert gram._section_bounds(order[:n], s) == gram._section_bounds(sorted(order[:n]), s)


def test_fold_test_on_keys_is_the_coordinate_test():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def point_sets(draw):
        d = draw(st.integers(1, 3))
        # per axis, coordinates in -4..4, negative ones included, or one fixed value: span 0
        fixed = draw(st.lists(st.none() | st.integers(-3, 3), min_size=d, max_size=d))
        axes = [st.integers(-4, 4) if f is None else st.just(f) for f in fixed]
        pts = draw(st.sets(st.tuples(*axes), min_size=1, max_size=10))
        if draw(st.booleans()):  # mirrored through a centre that keeps the fixed values
            centre = [draw(st.integers(-4, 4)) if f is None else 2 * f for f in fixed]
            pts |= {tuple(c - x for c, x in zip(centre, p)) for p in pts}
        return d, draw(st.permutations(sorted(pts)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(point_sets())
    def check(case):
        d, pts = case
        ordered = sorted(pts)
        ends = tuple(a + b for a, b in zip(ordered[0], ordered[-1]))
        symmetric = len(pts) > 1 and all(tuple(a + b for a, b in zip(p, q)) == ends
                                         for p, q in zip(ordered, ordered[::-1]))
        solver = gram._section_bounds(pts, BOXES[d]).solver
        assert solver == ("centrohermitian-real" if symmetric else "hermitian")

    check()


# ------------------------------------------------ progressions on one arc --

STEMR = pytest.mark.skipif("stemr" not in gram._openblas(), reason="numpy's LAPACK exports no dstemr")
ONE_ARC, TWO_ARCS = normalize_bands([(0.3, 2.0)]), normalize_bands([(0.3, 1.9), (3.0, 4.5)])


def _progression_arcs(step, rng):
    """Arcs for progressions of this step: random and tiny lengths, omega =
    step * length / 2 on and near each multiple of pi below step * pi (past 2 pi
    aliased), arcs across 0, and the full torus."""
    lengths = [*rng.uniform(0, TWO_PI, 3), 1e-6, 1e-3, 0.5, TWO_PI / 3, 0.999999 * TWO_PI]
    lengths += [TWO_PI * k / step * f for k in range(1, step) for f in (1 - 1e-9, 1.0, 1 + 1e-9)]
    arcs = [(lo, lo + length) for lo, length in zip(rng.uniform(0, 3.0, len(lengths)), lengths)]
    return arcs + [(5.5, 7.0), (TWO_PI - 1e-3, TWO_PI + 2e-3), (0.0, TWO_PI)]


def _within_tol(b, lo, hi):
    return abs(b.lambda_min - lo) <= b.tol and abs(b.lambda_max - hi) <= b.tol


@STEMR
@pytest.mark.parametrize("step", [1, 2, 3, 7])
def test_progression_sections_match_eigvalsh_and_the_fold(step):
    rng = np.random.default_rng(step)
    for arc in _progression_arcs(step, rng):
        s = normalize_bands([arc])
        assert s.is_arc()
        for n in (3, 4, 8, 33, 200, 513):
            pts = (int(rng.integers(-500, 500)) + step * np.arange(n)).tolist()
            # shuffled, or in certify's (|x|, x) order
            given = rng.permutation(pts).tolist() if n % 2 else sorted(pts, key=lambda x: (abs(x), x))
            b = gram._section_bounds(given, s)
            assert (b.solver, b.driver) == ("prolate-tridiagonal", "stemr-vectors")
            achieved = n * np.finfo(float).eps * max(abs(b.lambda_min), abs(b.lambda_max), 1.0)
            assert b.tol == max(achieved, 1e-12)
            w = np.linalg.eigvalsh(_solved_gram(pts, s))
            assert _within_tol(b, w[0], w[-1]), (arc, n, b, w[[0, -1]])
            fold = gram._bounds(_fold_parts(pts, [arc]), n)
            assert _within_tol(b, fold.lambda_min, fold.lambda_max), (arc, n, b, fold)


@STEMR
@pytest.mark.parametrize("step, arc", [(3, (0.3, 2.0)), (7, (5.5, 7.0))], ids=["one-arc", "aliased"])
def test_progression_sections_at_the_size_limit_match_the_fold(step, arc):
    n = MAX_GRAM_N
    pts = (step * np.arange(-n // 2, n // 2)).tolist()
    b = gram._section_bounds(pts, normalize_bands([arc]))
    assert b.solver == "prolate-tridiagonal"
    fold = gram._bounds(_fold_parts(pts, [arc]), n)
    assert _within_tol(b, fold.lambda_min, fold.lambda_max), (b, fold)


@pytest.mark.parametrize("pts, spectrum, solver", [
    ([5], ONE_ARC, "real-symmetric"),
    ([2, 5], ONE_ARC, "centrosymmetric-split"),
    (list(range(-9, 10, 3)), TWO_ARCS, "centrohermitian-real"),
    ([p for p in range(-9, 10, 3) if p != 6], ONE_ARC, "real-symmetric"),
    ([(k, 2 * k) for k in range(-3, 4)], BOXES[2], "centrohermitian-real"),
    (list(range(-9, 10, 3)), BOXES[1], "centrohermitian-real"),
], ids=["one-point", "two-points", "two-arcs", "one-missing", "2-d", "1-d-box"])
def test_other_sections_keep_their_solver(monkeypatch, pts, spectrum, solver):
    def no_prolate(*args):
        raise AssertionError("a section off the progression route took it")

    monkeypatch.setattr(gram, "_prolate_bounds", no_prolate)
    assert gram._section_bounds(pts, spectrum).solver == solver


def test_without_dstemr_progression_sections_take_the_fold(monkeypatch):
    # a build without dstemr has no OpenBLAS symbols at all (see _openblas)
    monkeypatch.setattr(gram, "_openblas", dict)
    for pts in (list(range(-30, 31, 3)), list(range(-30, 28, 3))):  # odd and even n
        b = gram._section_bounds(pts, ONE_ARC)
        assert (b.solver, b.driver) == ("centrosymmetric-split", "eigvalsh")


def test_progression_sections_refuse_differences_past_int64():
    step = 3 * 2**61  # fits in int64, but twice it does not
    with pytest.raises(ValueError, match="64-bit"):
        gram._section_bounds([-step, 0, step], ONE_ARC)
    step = 2**62 - 1  # the widest progression of 3 points whose differences fit
    route = "prolate-tridiagonal" if "stemr" in gram._openblas() else "centrosymmetric-split"
    assert gram._section_bounds([-step, 0, step], ONE_ARC).solver == route


@STEMR
def test_progression_sections_take_linear_memory(monkeypatch):
    def no_gather(*args):
        raise AssertionError("a progression section gathered its Gram")

    monkeypatch.setattr(gram, "_gather", no_gather)
    n = MAX_GRAM_N
    pts = np.arange(-n + 1, n, 2)
    gram._section_bounds(pts[:64], ONE_ARC)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        b = gram._section_bounds(pts, ONE_ARC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.solver == "prolate-tridiagonal"
    # dstemr's minimum workspaces for vectors, 18 n doubles and 10 n integers, T,
    # the two vectors and the sorted points: about 37 words a point, 1.2 MB at
    # n = 4096, where the fold of the same section takes 64 MB
    assert peak <= 40 * 8 * n


# ------------------------------------------- progressions on several arcs --

def _multiband(rng):
    """2 to 4 random arcs, turned by a random angle, so some cross 0."""
    k = int(rng.integers(2, 5))
    ends = np.sort(rng.uniform(0, TWO_PI, 2 * k)) + rng.uniform(0, TWO_PI)
    return [(float(a), float(b)) for a, b in ends.reshape(k, 2)]


def _symbol_extremes(step, bands):
    """(A, B), the essential extremes of the symbol (2 pi/step) mu of a progression of
    `step` on the bands, mu(u) the number of t in S with step t = u mod 2 pi: counted
    directly at the midpoint between each two pushed arc ends, which lie far enough
    apart that rounding cannot move a midpoint across an end."""
    arcs = [(a.start, a.end) for a in normalize_bands(bands).arcs]
    ends = sorted({(step * t) % TWO_PI for arc in arcs for t in arc})  # 0 and 2 pi meet at 0
    gaps = np.diff(ends + [ends[0] + TWO_PI])
    assert gaps.min() > 1e-6
    mu = [sum(a <= (u + TWO_PI * j) / step < b for a, b in arcs for j in range(step))
          for u in np.array(ends) + gaps / 2]
    return TWO_PI / step * min(mu), TWO_PI / step * max(mu)


def _fold(pts, bands):
    """The fold of a point-symmetric section on several arcs, as _section_bounds solves it."""
    return gram._bounds(_fold_parts(pts, bands), len(pts), "centrohermitian-real")


@STEMR
@pytest.mark.parametrize("step", range(1, 9))
def test_multiband_progression_sections_bracket_the_symbol(step):
    rng = np.random.default_rng(100 + step)
    for k in range(2):
        bands = _multiband(rng)
        s = normalize_bands(bands)
        assert not s.is_arc()
        low, high = _symbol_extremes(step, bands)
        for n in (3, 4, 8, 33, 200, 513, 1024)[:7 - k]:  # n = 1024 on the first set only
            pts = (int(rng.integers(-500, 500)) + step * np.arange(n)).tolist()
            # shuffled, or in certify's (|x|, x) order
            given = rng.permutation(pts).tolist() if n % 2 else sorted(pts, key=lambda x: (abs(x), x))
            b = gram._section_bounds(given, s)
            if b.solver != "toeplitz-symbol":
                assert n < 513, (bands, n)  # from 513 points on, every set here is answered
                assert b == _fold(pts, bands), (bands, n)
                continue
            assert b.driver == "stemr-vectors"
            w = np.linalg.eigvalsh(_solved_gram(pts, s))
            assert _within_tol(b, w[0], w[-1]), (bands, n, b, w[[0, -1]])
            assert low - b.tol <= b.lambda_min and b.lambda_max <= high + b.tol, (bands, n, b)


@STEMR
@pytest.mark.parametrize("step, bands", [
    (2, [(0.3, 1.0), (1.0 + math.pi + 5e-11, 4.5)]),  # pushed ends 1e-10 apart
    (2, [(0.3, 1.0), (1.0 + math.pi - 5e-11, 4.5)]),  # and overlapping by 1e-10
    (3, [(0.3, 1.2), (2.0, 1.2 + 4 * math.pi / 3 + 2e-10)]),  # 6e-10 apart
    (2**20, [(0.3, 1.9), (3.0, 4.5)]),  # a step whose pushed ends may err by 1e-9
], ids=["gap", "overlap", "three", "wide-step"])
def test_multiband_progressions_fall_back_where_rounding_could_decide(monkeypatch, step, bands):
    s = normalize_bands(bands)
    assert gram._symbol_levels(step, s) is None
    pts = (step * np.arange(-256, 257)).tolist()
    want = _fold(pts, bands)

    def no_vectors(*args):
        raise AssertionError("the count was left to rounding, and the route went on")

    monkeypatch.setattr(gram, "_slepian_vectors", no_vectors)
    assert gram._section_bounds(pts, s) == want


@STEMR
@pytest.mark.parametrize("bands, levels", [
    ([(0.0, 0.1), (0.5, 0.6)], (0, 2)),  # A = 0: the sections are refuted
    ([(0.0, 0.125), (0.375, 0.5), (0.625, 0.875)], (1, 1)),  # mu = 1: 2Z is an orthogonal basis
], ids=["zero", "constant"])
def test_multiband_progressions_at_exact_levels(bands, levels):
    # in fractions of the circle, each pushed end is bit-equal to the one it meets
    step, s = 2, normalize_bands(bands, unit="2pi")
    assert [mu for mu, _, _ in gram._symbol_levels(step, s)] == list(levels)
    pts = (step * np.arange(-32, 32)).tolist()
    b = gram._section_bounds(pts, s)
    assert b.solver == "toeplitz-symbol"
    w = np.linalg.eigvalsh(_solved_gram(pts, s))
    assert _within_tol(b, w[0], w[-1])
    assert _within_tol(b, *(math.pi * mu for mu in levels))


@STEMR
def test_multiband_progression_sections_take_linear_memory(monkeypatch):
    def no_gather(*args):
        raise AssertionError("a progression section gathered its Gram")

    monkeypatch.setattr(gram, "_gather", no_gather)
    n, s = MAX_GRAM_N, normalize_bands([[0.1, 0.5], [0.7, 0.85]], unit="2pi")
    pts = 3 * np.arange(-n // 2, n // 2)
    gram._section_bounds(pts[:64], s)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        b = gram._section_bounds(pts, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.solver == "toeplitz-symbol"
    # dstemr's workspaces, four complex vectors, the coefficients and the FFT buffers of
    # the correlation: about 52 words a point, 1.6 MiB at n = 4096, where the fold of the
    # same section fills an n x n real array, 128 MiB
    assert peak <= 64 * 8 * n


# ------------------------------------------- reductions and dstemr picks --

REAL, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)
# the sizes from which the two-stage reductions beat the one-stage ones (tests/two_stage_sweep.py)
MINIMUM = {REAL: 896, COMPLEX: 512}
SOLVE = {(False, REAL), (True, REAL), (False, COMPLEX), (True, COMPLEX), "stemr"}
REDUCTIONS = pytest.mark.skipif(not SOLVE <= set(gram._openblas()),
                                reason="numpy's LAPACK exports no tridiagonal reductions or dstemr")


def _random_hermitian(n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if dtype == COMPLEX:
        a = a + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def _fold_parts(points, bands):
    """The folded parts _section_bounds solves for these point-symmetric points; a
    progression on one arc takes the fold only where the OpenBLAS table is empty, so
    it is emptied here."""
    parts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gram, "_bounds", lambda p, size, solver: parts.extend(p))
        patch.setattr(gram, "_openblas", dict)
        gram._section_bounds(points, normalize_bands(bands))
    # the fold writes only the upper triangles; eigvalsh's default reads the lower
    return [np.triu(p) + np.triu(p, 1).T for p in parts]


def _fold_part(n, bands):
    """The first folded part _section_bounds solves for n >= 3 points: a
    progression less its pair next to the middle, so not a progression."""
    return _fold_parts([p for p in range(-(n + 1), n + 2, 2) if abs(p) > 2 or p == 0], bands)[0]


def _box_gram(n):
    pts = [(x, y) for x in range(24) for y in range(24)][:n]
    return build_gram(pts, BoxSet(boxes=(((0.0, 3.0), (0.0, 3.0)), ((3.5, 5.0), (1.0, 6.0)))),
                      normalized=True)


# each builds a matrix of exactly n rows: random, a one-arc fold (plus has
# (n+1)//2 rows for n points), the two-arc centrohermitian-real fold, a box Gram
TWO_STAGE_CASES = {
    "random-real": (REAL, lambda n: _random_hermitian(n, REAL)),
    "random-complex": (COMPLEX, lambda n: _random_hermitian(n, COMPLEX)),
    "one-arc-fold": (REAL, lambda n: _fold_part(2 * n - 1, [(0.5, 2.6)])),
    "two-arc-fold": (REAL, lambda n: _fold_part(n, [(0.3, 1.9), (3.0, 4.5)])),
    "box-gram": (COMPLEX, _box_gram),
}


@REDUCTIONS
@pytest.mark.parametrize("below", [True, False], ids=["below-minimum", "at-minimum"])
@pytest.mark.parametrize("case", TWO_STAGE_CASES)
def test_two_stage_extremes_match_eigvalsh(monkeypatch, case, below):
    dtype, build = TWO_STAGE_CASES[case]
    n = MINIMUM[dtype] - below
    a = build(n)
    assert a.shape == (n, n) and a.dtype == dtype
    w = np.linalg.eigvalsh(a)
    routed = gram._bounds([a.copy()], n)
    assert routed.driver == ("one-stage" if below else "two-stage")
    tol = n * np.finfo(float).eps * np.abs(w).max()
    for minimum, route in ((0, "two-stage"), (math.inf, "one-stage")):
        monkeypatch.setattr(gram, "_TWO_STAGE_MIN_N", {REAL: minimum, COMPLEX: minimum})
        forced = gram._bounds([a.copy()], n)
        assert forced.driver == route
        assert abs(forced.lambda_min - w[0]) <= tol and abs(forced.lambda_max - w[-1]) <= tol


def _projection_progressions():
    """(step, arc, points): a progression of step q on an arc shorter than
    2 pi / q has a projection Gram, its spectrum clustered at 0 and at 2 pi / q."""
    for step, arc in ((3, (5.5, 7.0)), (2, (0.5, 2.6)), (4, (1.0, 2.5))):
        for half in (1, 2, 30, 31):
            yield step, arc, list(range(-step * half, step * half + 1, step))


def _degenerate_parts():
    """(name, matrix) pairs whose extremes are zero, repeated or clustered."""
    for dtype in (REAL, COMPLEX):
        for n in (1, 2, 3):
            v = np.arange(1.0, n + 1) * (1 - 2j if dtype == COMPLEX else 1)
            yield f"zero-{dtype}-{n}", np.zeros((n, n), dtype)
            yield f"identity-{dtype}-{n}", np.eye(n, dtype=dtype)
            yield f"rank-one-{dtype}-{n}", np.outer(v, v.conj())
            yield f"random-{dtype}-{n}", _random_hermitian(n, dtype, seed=n)
    # the 3Z section of 61 points on (5.5, 7.0) folds to a 31 x 31 part with
    # lambda_max repeated, where dstebz with range "I" failed with info 2 and
    # wrote past its workspace
    for step, arc, points in _projection_progressions():
        for i, part in enumerate(_fold_parts(points, [arc])):
            yield f"fold-{step}Z-{arc}-{len(points)}-{i}", part
        yield f"gram-{step}Z-{arc}-{len(points)}", build_gram(points, normalize_bands([arc]))
    rank = _random_hermitian(40, COMPLEX, seed=7)[:, :5]
    yield "rank-five-complex-40", rank @ rank.conj().T


def check_degenerate_spectra():
    """_bounds against eigvalsh, within its reported tol, on every part of
    _degenerate_parts through both reductions, and _section_bounds on the
    sections of _projection_progressions."""
    saved = gram._TWO_STAGE_MIN_N
    try:
        for minimum, route in ((math.inf, "one-stage"), (0, "two-stage")):
            gram._TWO_STAGE_MIN_N = {REAL: minimum, COMPLEX: minimum}
            for name, a in _degenerate_parts():
                w = np.linalg.eigvalsh(a)
                b = gram._bounds([a.copy()], len(a))
                assert b.driver == route, (name, b)
                assert abs(b.lambda_min - w[0]) <= b.tol, (name, route, b, w[0])
                assert abs(b.lambda_max - w[-1]) <= b.tol, (name, route, b, w[-1])
    finally:
        gram._TWO_STAGE_MIN_N = saved
    for step, arc, points in _projection_progressions():  # and dstemr's vectors on them
        s = normalize_bands([arc])
        w = np.linalg.eigvalsh(_solved_gram(points, s))
        b = gram._section_bounds(points, s)
        assert b.solver == "prolate-tridiagonal", (step, arc, len(points), b)
        assert abs(b.lambda_min - w[0]) <= b.tol, (step, arc, len(points), b, w[0])
        assert abs(b.lambda_max - w[-1]) <= b.tol, (step, arc, len(points), b, w[-1])


@REDUCTIONS
def test_bounds_match_eigvalsh_on_degenerate_spectra():
    # in a child with glibc's MALLOC_CHECK_=3, so a LAPACK write past its
    # workspace aborts the child instead of passing unseen; from glibc 2.34 the
    # checks live in libc_malloc_debug, preloaded where it is found
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, MALLOC_CHECK_="3",
               PYTHONPATH=os.pathsep.join([str(Path(gram.__file__).resolve().parents[1]),
                                           str(tests)]))
    if debug := ctypes.util.find_library("c_malloc_debug"):
        env["LD_PRELOAD"] = " ".join(filter(None, [env.get("LD_PRELOAD"), debug]))
    proc = subprocess.run([sys.executable, "-c",
                           "import test_gram; test_gram.check_degenerate_spectra()"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("lookup", ["no-symbols"])
@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_without_the_driver_bounds_are_eigvalsh_bit_for_bit(monkeypatch, lookup, dtype):
    # a build without the OpenBLAS symbols: no thread pin either
    n = MINIMUM[dtype]
    a = _random_hermitian(n, dtype, seed=1)
    w = np.linalg.eigvalsh(a, UPLO="U")  # the triangle the LAPACK route reads
    monkeypatch.setattr(gram, "_openblas", dict)
    b = gram._bounds([a], n)
    assert b.driver == "eigvalsh"
    assert np.array_equal([b.lambda_min, b.lambda_max], w[[0, -1]])


@REDUCTIONS
@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_public_solvers_leave_the_callers_matrix_alone(dtype):
    n = MINIMUM[dtype]
    x = _random_hermitian(n, dtype, seed=2)
    h = x @ x.conj().T / n + np.eye(n)  # positive definite
    kept = h.copy()
    assert extreme_eigs(h).driver == "two-stage"
    assert np.array_equal(h, kept)
    with gram._one_blas_thread():  # as dual_system runs it
        inv = np.linalg.inv(kept)
    assert np.array_equal(dual_system(h), (inv + inv.conj().T) / 2.0)
    assert np.array_equal(h, kept)


def _failing(fn):
    """fn, but reporting info 1: info is the last argument passed by reference."""
    def fail(*args):
        fn(*args)
        next(x for x in reversed(args) if hasattr(x, "_obj"))._obj.value = 1
    return fail


@REDUCTIONS
def test_a_failed_two_stage_solve_raises(monkeypatch):
    # a failed reduction, one-stage or two-stage, or a failed dstemr pick
    symbols = gram._openblas()
    for n in (MINIMUM[REAL] - 1, MINIMUM[REAL]):
        a = np.eye(n)
        a[5, 3] = a[3, 5] = np.nan  # dstemr refuses a non-finite tridiagonal
        with pytest.raises(np.linalg.LinAlgError, match="dstemr failed: info"):
            gram._bounds([a], n)
        for key, match in (((n >= MINIMUM[REAL], REAL), "reduction failed: info 1"),
                           ("stemr", "dstemr failed: info 1")):
            failing = {**symbols, key: _failing(symbols[key])}
            monkeypatch.setattr(gram, "_openblas", lambda: failing)
            with pytest.raises(np.linalg.LinAlgError, match=match):
                gram._bounds([np.eye(n)], n)
        monkeypatch.setattr(gram, "_openblas", lambda: symbols)


@STEMR
def test_a_failed_dstemr_pick_on_a_progression_raises(monkeypatch):
    symbols = gram._openblas()
    failing = {**symbols, "stemr": _failing(symbols["stemr"])}
    monkeypatch.setattr(gram, "_openblas", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match="dstemr failed: info 1"):
        gram._section_bounds(list(range(-30, 31, 3)), ONE_ARC)


def _tridiagonals():
    """(name, de): random tridiagonals and Slepian's T of _prolate_bounds, w on and
    beside multiples of pi and one generic w, n = 1 and 2 included, packed as _stemr
    reads them."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 8, 17, 64, 300):
        for seed in range(3):
            yield f"random-{n}-{seed}", np.concatenate((rng.standard_normal(2 * n - 1), [0.0]))
    for n in (1, 2, 3, 8, 33, 200):
        j = np.arange(n)
        for w in (0.0, math.pi, 2 * math.pi, 3 * math.pi, math.pi * (1 - 1e-9),
                  math.pi * (1 + 1e-9), 2 * math.pi * (1 + 1e-9), 1.3):
            d = ((n - 1 - 2 * j) / 2) ** 2 * math.cos(w)
            yield f"slepian-{n}-{w}", np.concatenate((d, j[1:] * (n - j[1:]) / 2, [0.0]))


@STEMR
@pytest.mark.parametrize("jobz", [b"N", b"V"], ids=["values", "vectors"])
def test_stemr_picks_match_eigvalsh(jobz):
    # within n eps max|lambda|, but no less than 16 eps max|lambda|: below n = 16, a
    # jobz "N" pick measured up to 12 eps max|lambda| from eigvalsh on 3000 random
    # tridiagonals of each size
    eps = np.finfo(float).eps
    for name, de in _tridiagonals():
        n = len(de) // 2
        t = np.diag(de[:n]) + np.diag(de[n:2 * n - 1], 1) + np.diag(de[n:2 * n - 1], -1)
        w = np.linalg.eigvalsh(t)
        tol = max(n, 16) * eps * np.abs(w).max()
        kept = de.copy()
        lo, hi, z = gram._stemr(de, jobz)
        assert np.array_equal(de, kept), name
        assert abs(lo - w[0]) <= tol and abs(hi - w[-1]) <= tol, (name, lo, hi, w[[0, -1]])
        if jobz == b"N":
            assert z is None
            continue
        assert z.shape == (2, n)
        for lam, v in zip((lo, hi), z):
            assert abs(np.linalg.norm(v) - 1) <= n * eps, name
            assert np.linalg.norm(t @ v - lam * v) <= tol, name


IN_PLACE_PROBE = """
import sys
from rieszforge import gram, normalize_bands

def peak():  # VmHWM, this image's own peak RSS; ru_maxrss keeps the forking parent's
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) * 1024

n, s = int(sys.argv[1]), normalize_bands([(0.5, 2.6)])
gram._bounds([gram._solved_gram(range(n // 2), s)], n // 2)  # first-call buffers
a = gram._solved_gram(range(n), s)
before = peak()
b = gram._bounds([a], n)
print(b.driver, (peak() - before) / a.nbytes)
"""


@REDUCTIONS
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_two_stage_solves_in_place():
    # eigvalsh, or a row-major LAPACK call, copies the matrix and grows the peak
    # RSS by about its size; either reduction in place adds only its workspace
    env = dict(os.environ, PYTHONPATH=str(Path(gram.__file__).resolve().parents[1]))
    for n, route in ((860, "one-stage"), (2048, "two-stage")):
        proc = subprocess.run([sys.executable, "-c", IN_PLACE_PROBE, str(n)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        driver, grown = proc.stdout.split()
        assert driver == route
        assert float(grown) < 0.5, (n, grown)


def test_scipy_openblas_numpy_resolves_every_symbol():
    if np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"] != "scipy-openblas":
        pytest.skip("numpy is not built on scipy-openblas")
    assert set(gram._openblas()) == SOLVE | {("potrf", REAL), ("potrf", COMPLEX), "get", "set"}


SYMBOLS = ("dsytrd_64_", "zhetrd_64_", "dsytrd_2stage_64_", "zhetrd_2stage_64_", "dstemr_64_",
           "LAPACKE_dpotrf_work64_", "LAPACKE_zpotrf_work64_", "openblas_get_num_threads64_",
           "openblas_set_num_threads64_")


@REDUCTIONS
@pytest.mark.parametrize("missing", SYMBOLS)
def test_a_library_lacking_any_symbol_gives_no_symbols(monkeypatch, missing):
    real, cdll = gram._openblas(), ctypes.CDLL

    class Lacking:  # numpy's linalg extension, less one symbol
        def __init__(self, path):
            self.lib = cdll(path)

        def __getattr__(self, name):
            if name == "scipy_" + missing:
                raise AttributeError(name)
            return getattr(self.lib, name)

    monkeypatch.setattr(ctypes, "CDLL", Lacking)
    gram._openblas.cache_clear()
    try:
        assert gram._openblas() == {}
        # every route takes its fallback: eigvalsh, the fold for a one-arc progression,
        # np.linalg.cholesky for the screen, and no thread pin
        a = _random_hermitian(MINIMUM[REAL], REAL, seed=3)
        assert gram._bounds([a], len(a)).driver == "eigvalsh"
        b = gram._section_bounds(list(range(-30, 31, 3)), ONE_ARC)
        assert (b.solver, b.driver) == ("centrosymmetric-split", "eigvalsh")
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
        assert gram._cholesky_factors(np.asfortranarray(np.eye(4))) and calls == [1]
        threads = real["get"]()
        with gram._one_blas_thread():
            assert real["get"]() == threads
    finally:
        monkeypatch.undo()
        gram._openblas.cache_clear()
    assert gram._openblas().keys() == real.keys()


def test_dual_system_refuses_lambda_min_within_tol():
    # the refusal uses the solve's own error estimate, tol, 1e-12 here
    with pytest.raises(ValueError, match="singular or indefinite"):
        dual_system(np.diag([1.0, 1e-13]))
    assert np.array_equal(dual_system(np.diag([1.0, 0.5])), np.diag([1.0, 2.0]))
    assert extreme_eigs(np.diag([1.0, 1e-13])).tol == 1e-12


def _eigenvalues_below(a, x) -> int:
    """How many eigenvalues of the real symmetric a lie below the rational x, exactly:
    the negative pivots of an LDL^T of a - xI in Fractions, by Sylvester's law of
    inertia.  No pivot may vanish, so x is no eigenvalue either."""
    m = [[Fraction(v) for v in row] for row in a.tolist()]
    below = 0
    for k in range(len(m)):
        m[k][k] -= x
    for k in range(len(m)):
        pivot = m[k][k]
        assert pivot != 0
        below += pivot < 0
        for i in range(k + 1, len(m)):  # the upper triangle of the trailing block
            f = m[k][i] / pivot
            for j in range(i, len(m)):
                m[i][j] -= f * m[k][j]
    return below


def test_extreme_eigs_tol_holds_on_small_matrices():
    # a dstemr pick's error does not shrink with n below 16, so neither does tol: with
    # n eps in place of max(n, 16) eps, 13 of these 200 matrices, whose eigenvalues pass
    # the 1e-12 floor, had a bound outside tol, by up to 1.9 tol (0.47 tol now, against
    # 50-digit mpmath, which CI does not install).  Each bound's interval
    # [bound - tol, bound + tol] is checked exactly, by counting eigenvalues below its
    # ends; a Hermitian matrix through its real 2n embedding, which doubles each one
    for seed in range(100):
        n = 3 + seed % 6
        for dtype in (REAL, COMPLEX):
            a = 1e6 * _random_hermitian(n, dtype, seed)
            b = extreme_eigs(a)
            assert b.tol > 1e-12
            if dtype == COMPLEX:
                a = np.block([[a.real, -a.imag], [a.imag, a.real]])
            lo, hi, tol = (Fraction(v) for v in (b.lambda_min, b.lambda_max, b.tol))
            assert _eigenvalues_below(a, lo - tol) == 0 < _eigenvalues_below(a, lo + tol)
            assert _eigenvalues_below(a, hi - tol) < len(a) == _eigenvalues_below(a, hi + tol)


# ---------------------------------------------------------- Cholesky screen --

POTRF = pytest.mark.skipif(not {("potrf", REAL), ("potrf", COMPLEX)} <= set(gram._openblas()),
                           reason="numpy's LAPACK exports no ?potrf")


def _numpy_factors(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 64, 200])
@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_cholesky_screen_matches_numpy(n, dtype):
    # README, select, step 4: Cholesky completes once lambda_min exceeds about
    # 2 n(n+1) u times the largest diagonal entry.  Shifts a hundred times
    # that past lambda_min on either side must factor or fail; shifts of a few
    # ulps of the norm either side, where rounding decides, get numpy's
    # verdict, since the screen makes numpy's own LAPACK call
    for seed in range(3):
        a = _random_hermitian(n, dtype, seed)
        w = np.linalg.eigvalsh(a)
        norm = float(np.abs(w).max())
        clear = 100 * 2 * n * (n + 1) * np.finfo(float).eps / 2 * (norm + abs(w[0]))
        for shift, factors in ((clear, True), (-clear, False), *((k * norm * 1e-16, None)
                                                               for k in range(-20, 21, 4))):
            b = a - (w[0] - shift) * np.eye(n)
            expected = _numpy_factors(b)
            assert expected == factors or factors is None
            assert gram._cholesky_factors(np.asfortranarray(b)) == expected


@POTRF
@pytest.mark.parametrize("n", [1, 2, 64, 200])
@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_potrf_screen_gives_numpys_verdict_where_rounding_decides(monkeypatch, n, dtype):
    # the shifts of a few ulps above, on the C-ordered blocks that _search hands to
    # ?potrf: the Fortran-ordered ones above are screened by np.linalg.cholesky
    for seed in range(3):
        a = _random_hermitian(n, dtype, seed)
        w = np.linalg.eigvalsh(a)
        norm = float(np.abs(w).max())
        for k in range(-20, 21, 4):
            b = a - (w[0] - k * norm * 1e-16) * np.eye(n)
            expected = _numpy_factors(b)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "cholesky", None)  # potrf must decide
                assert gram._cholesky_factors(b) == expected  # b is C-ordered


@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_cholesky_screen_reads_only_the_upper_triangle(dtype):
    # the triangle _extremes reads, on both routes
    n = 64
    a = _random_hermitian(n, dtype, seed=4)
    w = np.linalg.eigvalsh(a)
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    for shift in (w[0] - 1.0, w[0] + 1.0):
        b = a - shift * np.eye(n)
        verdict = _numpy_factors(b)
        for junk in (np.nan, 1e300, 0.0):
            for order in ("C", "F"):  # the potrf route and the fallback
                c = np.array(b, order=order)
                c[lower] = junk
                assert gram._cholesky_factors(c) == verdict


@pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["float32", "complex64"])
def test_cholesky_screen_leaves_other_dtypes_to_numpy(monkeypatch, dtype):
    # ?potrf is bound for float64 and complex128 only
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
    a = np.asfortranarray(np.eye(8, dtype=dtype) * 2 + 1)  # positive definite
    assert gram._cholesky_factors(a) and calls == [1]
    assert not gram._cholesky_factors(-a) and calls == [1, 1]


@POTRF
@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_cholesky_screen_takes_potrf_only_in_c_order_and_writable(monkeypatch, dtype):
    n = 64
    x = _random_hermitian(n, dtype, seed=5)
    a = x @ x.conj().T + np.eye(n)  # positive definite
    lower = np.linalg.cholesky(a.T)  # a.T: the C-ordered buffer read column-major
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
    c = a.copy()  # C-ordered
    assert gram._cholesky_factors(c) and not calls
    # in place: the upper triangle, the column-major lower one, now holds numpy's factor
    assert np.allclose(np.triu(c).T, lower, rtol=0, atol=1e-12 * np.abs(lower).max())
    read_only = a.copy()
    read_only.flags.writeable = False
    strided = np.kron(a, np.ones((2, 2)))[::2, ::2]
    for m in (np.asfortranarray(a), read_only, strided):
        assert np.array_equal(m, a)
        calls.clear()
        assert gram._cholesky_factors(m) and calls == [1]
    assert np.array_equal(read_only, a)

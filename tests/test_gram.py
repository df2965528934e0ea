"""Gram matrices of exponential systems and finite-section certificates."""

import math

import numpy as np
import pytest

from rieszforge import TWO_PI, BoxSet, build_gram, certify, dual_system, \
    extreme_eigs, normalize_bands

HALF = normalize_bands([(0.0, math.pi)])  # S = [0, pi)


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
            assert g[j, k] == spectrum.fourier_coefficient(m), (j, k)
    assert np.array_equal(g, g.conj().T)
    gn = build_gram(pts, spectrum, normalized=True)
    assert np.array_equal(gn, g / spectrum.total_volume)


def test_gram_rejects_int64_overflow():
    with pytest.raises(ValueError):
        build_gram([0, 2**64], HALF)             # a point beyond int64
    with pytest.raises(ValueError):
        build_gram([-2**62, 2**62], HALF)        # difference 2**63 would wrap
    with pytest.raises(ValueError):
        build_gram([(0, 0), (2**40, -2**40)], BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),)))
    # the widest 1-D span whose differences fit int64 stays accepted
    g = build_gram([-2**62, 2**62 - 1], HALF)
    assert g[0, 1] == HALF.fourier_coefficient(2**63 - 1)


def test_normalized_gram():
    g = build_gram([0, 1], HALF, normalized=True)
    assert g[0, 0] == pytest.approx(0.5)
    s = normalize_bands([(0.0, TWO_PI)])
    gn = build_gram(range(5), s, normalized=True)
    assert np.abs(gn - np.eye(5)).max() < 1e-13


def test_extreme_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        extreme_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        extreme_eigs(np.zeros((2, 3)))


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


def test_gram_rejects_non_integer_points():
    with pytest.raises(ValueError, match="integers"):
        build_gram([0, 1.7], HALF)
    with pytest.raises(ValueError, match="integers"):
        build_gram([(0, 0), (1, 0.5)], BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),)))
    with pytest.raises(ValueError):
        build_gram([0, float("nan")], HALF)
    # integral values of any numeric type keep working
    want = build_gram([0, 1, 5], HALF)
    assert np.array_equal(build_gram([0.0, 1.0, 5.0], HALF), want)
    assert np.array_equal(build_gram(np.array([0, 1, 5]), HALF), want)


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

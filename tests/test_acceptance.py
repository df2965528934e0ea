"""Acceptance suite: eleven numbered criteria, one printed PASS/FAIL line each.

Each criterion prints its verdict directly to the terminal (bypassing pytest
capture) and then asserts, so a full -v run shows the scoreboard inline.
"""

import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigvalsh as scipy_eigvalsh

import rieszforge as rf
from rieszforge import TWO_PI
from rieszforge.gram import _solved_gram

THRESHOLD = 1e-3 * TWO_PI


def verdict_line(capsys, num, name, checks):
    ok = all(checks.values())
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, {k: v for k, v in checks.items() if not v}


def oracle_gram(points, arc_end):
    """Dense Gram on S = [0, arc_end) by direct numerical quadrature.

    Deliberately avoids the library's closed-form coefficients so it can
    arbitrate them.
    """
    pts = sorted(points)
    n = len(pts)
    cache = {}

    def coeff(d):
        if d not in cache:
            re, _ = quad(lambda t: math.cos(d * t), 0.0, arc_end, limit=200)
            im, _ = quad(lambda t: -math.sin(d * t), 0.0, arc_end, limit=200)
            cache[d] = re + 1j * im
        return cache[d]

    g = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            g[j, k] = coeff(pts[k] - pts[j])
    return g


# shared constructions (criterion 5 re-reads the certificates of 2-4)

@pytest.fixture(scope="module")
def small_bundle():
    t0 = time.monotonic()
    s = rf.normalize_bands([(0.0, 0.45)], unit="2pi")
    params, points = rf.construct_riesz_set(s, (-5000, 5000))
    cert = rf.certify(points, s, THRESHOLD, schedule=(16, 32, 64, 128))
    return {"spectrum": s, "params": params, "points": points, "cert": cert,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def large_bundle():
    t0 = time.monotonic()
    s = rf.normalize_bands([(0.0, 0.5), (0.6, 0.9)], unit="2pi")
    params, points = rf.construct_riesz_set(s, (-5000, 5000))
    cert = rf.certify(points, s, THRESHOLD,
                      schedule=(16, 32, 64, 128, 256, 384, 512))
    return {"spectrum": s, "params": params, "points": points, "cert": cert,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def dichotomy_bundle():
    s = rf.normalize_bands([(0.0, math.pi)])
    sparse = list(range(-99, 100, 3))
    dense = list(range(-100, 101))

    def centered_section(elems, n):
        return sorted(sorted(elems, key=lambda x: (abs(x), x))[:n])

    oracle_sparse = float(scipy_eigvalsh(oracle_gram(centered_section(sparse, 64),
                                                     math.pi))[0])
    oracle_dense = float(scipy_eigvalsh(oracle_gram(centered_section(dense, 64),
                                                    math.pi))[0])
    cert_sparse = rf.certify(sparse, s, THRESHOLD, schedule=(16, 32, 64))
    cert_dense = rf.certify(dense, s, THRESHOLD, schedule=(16, 32, 64))
    return {"spectrum": s, "oracle_sparse": oracle_sparse,
            "oracle_dense": oracle_dense, "cert_sparse": cert_sparse,
            "cert_dense": cert_dense}


def test_criterion_01_full_torus_identity(capsys):
    t0 = time.monotonic()
    s = rf.normalize_bands([(0.0, TWO_PI)])
    g = rf.build_gram(range(-16, 17), s)
    eigs = np.linalg.eigvalsh(g)
    elapsed = time.monotonic() - t0
    verdict_line(capsys, 1, "full torus Gram is 2*pi*I", {
        "matrix": float(np.abs(g - TWO_PI * np.eye(33)).max()) < 1e-10,
        "eigs": float(np.abs(eigs - TWO_PI).max()) < 1e-10,
        "runtime<1s": elapsed < 1.0,
    })


def test_criterion_02_small_mode_construction(small_bundle, capsys):
    b = small_bundle
    stats = rf.gap_stats(b["points"])
    cert = b["cert"]
    verdict_line(capsys, 2, "small-mode set on 45% spectrum", {
        "gap_set{1,3}": set(stats.gaps) == {1, 3},
        "density~a": abs(b["points"].density - float(b["params"].a)) < 0.01,
        "landau": rf.density_stats(b["points"]).within_landau(b["spectrum"]),
        "supported": cert.verdict == "supported",
        "lambda_min>0": cert.lambda_min[-1] > 0.0,
        "drop<=5%": cert.final_drop <= 0.05,
        "runtime<30s": b["seconds"] < 30.0,
    })


def test_criterion_03_large_mode_separation(large_bundle, capsys):
    b = large_bundle
    removed = b["points"].complement_in_window()
    verdict_line(capsys, 3, "large-mode set on two-band 80% spectrum", {
        "mode": b["params"].mode == "large" and b["params"].n == 4,
        "removed_gaps>=4": rf.gap_stats(removed).min_gap >= 4,
        "supported": b["cert"].verdict == "supported",
        "runtime<30s": b["seconds"] < 30.0,
    })


def test_criterion_04_progression_dichotomy(dichotomy_bundle, capsys):
    b = dichotomy_bundle
    cs, cd = b["cert_sparse"], b["cert_dense"]
    drop_32_64 = (cs.lambda_min[1] - cs.lambda_min[2]) / cs.lambda_min[1]
    verdict_line(capsys, 4, "3Z supported / Z refuted on half torus", {
        "oracle_confirms_sparse": b["oracle_sparse"] >= THRESHOLD,
        "oracle_confirms_dense": b["oracle_dense"] < THRESHOLD,
        "oracle_matches_package": abs(b["oracle_sparse"] - cs.lambda_min[2]) < 1e-6
                                  and abs(b["oracle_dense"] - cd.lambda_min[2]) < 1e-6,
        "sparse_supported": cs.verdict == "supported",
        "sparse_drop<=10%": drop_32_64 <= 0.10,
        "dense_refuted": cd.verdict == "refuted",
        "dense_small": cd.lambda_min[2] < THRESHOLD,
    })


def test_criterion_05_interlacing(small_bundle, large_bundle, dichotomy_bundle, capsys):
    certs = [small_bundle["cert"], large_bundle["cert"],
             dichotomy_bundle["cert_sparse"], dichotomy_bundle["cert_dense"]]
    mono = True
    ceiling = True
    for cert in certs:
        tol = 2.0 * max(b.tol for b in cert.bounds)
        lmin, lmax = cert.lambda_min, cert.lambda_max
        for a, b in zip(lmin, lmin[1:]):
            mono &= b <= a + tol
        for a, b in zip(lmax, lmax[1:]):
            mono &= b >= a - tol
        ceiling &= max(lmax) <= TWO_PI + 1e-8
    verdict_line(capsys, 5, "finite sections interlace monotonically", {
        "monotone": mono,
        "bessel_ceiling": ceiling,
    })


def test_criterion_06_naimark_identity(capsys):
    rng = np.random.default_rng(606)
    ok_identity = ok_complement = ok_equivalence = True
    for _ in range(100):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(d, 13))
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, _ = np.linalg.qr(z)
        f = q[:d, :]
        g = rf.naimark_complement(f)
        jsz = int(rng.integers(1, m + 1))
        sel = np.sort(rng.choice(m, size=jsz, replace=False)).tolist()
        gf = (f.conj().T @ f)[np.ix_(sel, sel)]
        gg = (g.conj().T @ g)[np.ix_(sel, sel)]
        ok_identity &= float(np.abs(gf + gg - np.eye(jsz)).max()) < 1e-10
        lf = float(np.linalg.eigvalsh(gf)[-1])
        lg = float(np.linalg.eigvalsh(gg)[0])
        ok_complement &= abs((1.0 - lf) - lg) < 1e-10
        delta = float(rng.uniform(0.05, 0.95))
        if abs((1.0 - lf) - delta) > 1e-9:
            ok_equivalence &= (lf <= 1.0 - delta) == (lg >= delta)
    verdict_line(capsys, 6, "complement Grams sum to the identity", {
        "subset_identity<=1e-10": ok_identity,
        "eig_complement<=1e-10": ok_complement,
        "threshold_equivalence": ok_equivalence,
    })


def test_criterion_07_parseval_completion(capsys):
    rng = np.random.default_rng(707)
    ok_span = ok_norms = True
    for i in range(100):
        delta = 0.1 if i % 2 == 0 else 0.2
        dim = int(rng.integers(2, 7))
        cnt = int(rng.integers(1, 2 * dim + 1))
        z = rng.normal(size=(dim, cnt)) + 1j * rng.normal(size=(dim, cnt))
        z /= np.linalg.norm(z, axis=0, keepdims=True)
        z *= np.sqrt(rng.uniform(0.2 * delta, delta, size=cnt))
        w = np.linalg.eigvalsh(z @ z.conj().T)
        if w[-1] > 1.0:
            z /= math.sqrt(w[-1]) * (1 + 1e-12)
        added = rf.complete_to_parseval_small(z, delta)
        if added.shape[1]:
            ok_norms &= float(np.real(np.sum(added.conj() * added, axis=0)).max()) <= delta + 1e-12
        total = z @ z.conj().T + added @ added.conj().T
        w2, v2 = np.linalg.eigh(z @ z.conj().T)
        span = v2[:, w2 > 1e-10]
        ok_span &= float(np.abs(total @ span - span).max()) < 1e-8
    verdict_line(capsys, 7, "small-norm completion reaches Parseval", {
        "identity_on_span<=1e-8": ok_span,
        "added_norms<=delta": ok_norms,
    })


def test_criterion_08_pair_selector(capsys):
    s = rf.normalize_bands([(0.0, 0.9)], unit="2pi")
    g = rf.build_gram(range(64), s, normalized=True)
    blocks = rf.BlockSystem.intervals(range(64), 2)
    config = rf.SelectorConfig(master_seed=0, max_trials=10000)
    r1 = rf.select_riesz(g, blocks, 0.05, config)
    r2 = rf.select_riesz(g, blocks, 0.05, config)

    # and byte-for-byte across processes pinned to different BLAS thread counts
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "rieszforge.cli", "select", "--measure", "0.9",
             "--window", "64", "--r", "2", "--seed", "0"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    cli_result = json.loads(outs[0])["result"]
    # on one arc the CLI searches the real R, a diagonal unitary conjugate of g
    real = rf.select_riesz(_solved_gram(range(64), s) / s.total_volume, blocks, 0.05, config)

    verdict_line(capsys, 8, "pair selector on 90% spectrum, seed 0", {
        "met": r1.met,
        "lambda_min>=0.05": r1.lambda_min >= 0.05,
        "within_1e4_trials": r1.trials <= 10000,
        "rerun_identical": r1 == r2,
        "thread_counts_identical": outs[0] == outs[1],
        "cli_matches_api": cli_result["labels"] == list(r1.labels) == list(real.labels)
                           and cli_result["lambda_min"] == real.lambda_min,
        "real_gram_matches_complex": abs(real.lambda_min - r1.lambda_min) <= 1e-12,
    })


def test_criterion_09_cycling_partition(capsys):
    window = rf.LatticeWindow(lo=(0, 0), hi=(17, 17))
    segments = rf.cycling_partition(2, 3, window)
    cells = [tuple(c) for c in segments.reshape(-1, 2).tolist()]
    exact = (len(segments) == 108
             and all(len(seg) == 3 for seg in segments)
             and sorted(cells) == sorted(window.points()))

    rng = np.random.default_rng(9)
    selectors = [segments[:, 0].tolist(),
                 segments[:, 1].tolist(),
                 segments[:, 2].tolist()]
    selectors += [[seg[int(rng.integers(3))].tolist() for seg in segments]
                  for _ in range(25)]
    gap_ok = True
    for sel in selectors:
        for axis in (1, 2):
            for fixed in range(18):
                st = rf.section_gaps(sel, axis, (fixed,), window)
                gap_ok &= bool(st.gaps) and st.gamma <= 12

    cubes = rf.cube_partition(2, 3, window)
    cover_ok = True
    for _ in range(10):
        sel = [cube[int(rng.integers(9))].tolist() for cube in cubes]
        cover_ok &= rf.covering_radius(sel, window) <= 3 * math.sqrt(2) + 1e-12

    verdict_line(capsys, 9, "cycling partition syndetic in every section", {
        "exact_cover_108": exact,
        "section_gaps<=12": gap_ok,
        "covering<=3sqrt2": cover_ok,
    })


def test_criterion_10_exact_arithmetic_regression(capsys):
    # oracle first: recompute the vector at 100-digit precision with margins
    getcontext().prec = 100
    root6 = Decimal(6).sqrt()
    alpha = (6 - root6) / 12
    bound = root6 / 6
    margin = Decimal("1e-50")
    members = []
    margins_ok = True
    for n in range(19):
        frac = alpha * n
        frac -= int(frac)
        if frac != 0:
            # decision must be far from every boundary at this precision
            margins_ok &= min(abs(frac - bound), frac, 1 - frac) > margin
        if frac < bound:
            members.append(n)

    expected = (0, 1, 4, 7, 8, 11, 14, 17, 18)
    got = rf.generate(
        rf.QuadNum(Fraction(1, 2), Fraction(-1, 12), 6),
        rf.UnitInterval(0, rf.QuadNum(0, Fraction(1, 6), 6)),
        (0, 18),
    )
    verdict_line(capsys, 10, "quadratic-field generator matches 100-digit oracle", {
        "oracle_margins": margins_ok,
        "oracle_vector": tuple(members) == expected,
        "package_vector": got.elements == expected,
    })


def test_criterion_11_dual_reciprocity(capsys):
    rng = np.random.default_rng(1105)
    accepted = 0
    guard = 0
    ok_swap = True
    while accepted < 50 and guard < 500:
        guard += 1
        lo = float(rng.uniform(0.0, 0.4))
        length = float(rng.uniform(0.3, 0.55))
        bands = [[lo, lo + length]]
        if rng.integers(2):
            b2 = lo + length + float(rng.uniform(0.02, 0.1))
            bands.append([b2, min(b2 + float(rng.uniform(0.05, 0.2)), 0.999)])
        s = rf.normalize_bands(bands, unit="2pi")
        size = int(rng.integers(4, 11))
        pts = np.sort(rng.choice(40, size=size, replace=False)).tolist()
        g = rf.build_gram(pts, s)
        w = np.linalg.eigvalsh(g)
        if w[0] < 1e-4:  # keep the inverse well-conditioned
            continue
        accepted += 1
        wd = np.linalg.eigvalsh(rf.dual_system(g))
        ok_swap &= abs(wd[-1] * w[0] - 1.0) < 1e-8
        ok_swap &= abs(wd[0] * w[-1] - 1.0) < 1e-8
    verdict_line(capsys, 11, "biorthogonal Gram swaps extreme eigenvalues", {
        "fifty_instances": accepted == 50,
        "reciprocal_swap<=1e-8": ok_swap,
    })

"""Gram matrices of exponential systems and finite-section certificates.

For integer frequencies P and a spectrum S the Gram is G[j,k] = c(p_k - p_j)
with c the indicator Fourier coefficient of S.  Extreme eigenvalues of nested
centered finite sections bound the infinite system's Riesz constants from one
side only: lambda_min decreases and lambda_max increases as the section grows,
so a certificate is evidence, never a proof.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .quadfield import integer_points, integers
from .quasicrystal import PointSet
from .torus import TWO_PI, MultibandSet, centered_interval_coefficient

__all__ = [
    "DEFAULT_SCHEDULE",
    "DEFAULT_DROP_RATIO",
    "BoundsEstimate",
    "GramCertificate",
    "build_gram",
    "extreme_eigs",
    "certify",
    "dual_system",
]

DEFAULT_SCHEDULE = (16, 32, 64, 128, 256)
DEFAULT_DROP_RATIO = 0.05
_ROW_BLOCK = 64  # rows per block of the Hermiticity check
_GATHER_ENTRIES = 2**14  # entries per block of the table gather
_TABLE_CHUNK = 8192  # frequencies per coefficient call: bounds the formulas' temporaries
_HERMITIAN_TOL = 1e-12  # Hermiticity residual allowed, relative to the largest entry
_REAL, _COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)
# smallest part the two-stage reductions take: one-stage is faster below (tests/two_stage_sweep.py)
_TWO_STAGE_MIN_N = {_REAL: 896, _COMPLEX: 512}
# largest block the selection screen hands unblocked ?potf2, ?potrf above (tests/screen_sweep.py)
_UNBLOCKED_MAX_N = 112
_BREAK_ALLOWANCE = 1e-9  # radians: distinct pushed arc ends this close leave the symbol uncounted
_BLAS_PIN = threading.Lock()  # held while the OpenBLAS thread count is pinned

FINITE_SECTION_NOTE = (
    "finite sections bound the infinite system's lower Riesz constant from "
    "above and its upper constant from below; 'supported' is numerical "
    "evidence, not a proof"
)


@dataclass(frozen=True)
class BoundsEstimate:
    """Extreme eigenvalues of one Hermitian section, their accuracy, the
    solver (see _bounds): "real-symmetric" or "hermitian" for a full solve,
    "centrosymmetric-split" or "centrohermitian-real" for a folded
    point-symmetric section (see _section_bounds), "prolate-tridiagonal" for a
    progression on one arc (see _prolate_bounds), "toeplitz-symbol" for one on
    several arcs whose symbol bracket holds (see _symbol_bounds), and the driver:
    "two-stage" if any part took the two-stage reduction, else "one-stage" (see
    _extremes), "eigvalsh" where _openblas() is empty, or "stemr-vectors"."""

    lambda_min: float
    lambda_max: float
    tol: float
    solver: str
    driver: str


def build_gram(points, spectrum, normalized: bool = False) -> np.ndarray:
    """Hermitian Gram of the exponentials with frequencies `points` on `spectrum`.

    points is a sequence of ints (1-D) or of equal-length int tuples
    (multi-dim); spectrum is any object with total_volume and a
    fourier_coefficient that maps a (k, d) int array of frequencies, one per
    row, to their k values (a MultibandSet at d = 1, or a BoxSet).  With
    normalized=True the matrix is divided by the ambient volume, so the full
    integer lattice would give the identity.  Raises ValueError when the
    points are not integers or not all of one length, or when they or their
    key differences do not fit in 64-bit integers.
    """
    g = _gather(*_table(points, spectrum.fourier_coefficient, complex))
    if normalized:
        g /= spectrum.total_volume
    return g


def _solved_gram(points, spectrum) -> np.ndarray:
    """The unnormalized Gram that _section_bounds and select solve (see _solved_table)."""
    return _gather(*_solved_table(points, spectrum))


def _solved_table(points, spectrum):
    """_table of the Gram that _section_bounds and select solve.  On one arc, the
    full torus included, the real R[j,k] = r(p_k - p_j) with r the
    centered_interval_coefficient of the arc's length: R is D G D^H for
    build_gram's G and a diagonal unitary D, so every principal submatrix of R
    has the eigenvalues of G's.  Otherwise (several arcs, a BoxSet), build_gram's G.
    """
    if not (isinstance(spectrum, MultibandSet) and spectrum.is_arc()):
        return _table(points, spectrum.fourier_coefficient, complex)
    length = spectrum.measure
    return _table(points, lambda m: centered_interval_coefficient(length, m.ravel()), float)


def _table(points, coefficient, dtype):
    """(vals, diffs, keys): the table of M[j,k] = coefficient(p_k - p_j), of the
    given dtype, and the points' keys; _gather(*_table(...)) builds M.

    points are ints or d-tuples, read by integer_points, and keyed in their
    order by a mixed-radix code of p - lo (radix 2*span+1 per axis, first axis
    most significant): linear, and injective on differences and on sums of two
    (see _section_bounds).  A key difference's sign is that of the first
    nonzero component, so the non-negative differences are decoded to a (k, d)
    array, d = 1 included, and evaluated by coefficient, _TABLE_CHUNK per call;
    each negative one takes the conjugate of its mirror: M is Hermitian
    bit-for-bit.  If the largest key difference K has K+1 <= n^2, vals holds
    every difference in -K..K and diffs is None; wider spans tabulate the
    sorted unique differences, diffs.
    """
    arr = integer_points(points)
    n, lo = len(arr), arr.min(axis=0)
    # spans, radices and strides in Python ints, so the range check cannot wrap
    spans = [int(b) - int(a) for a, b in zip(lo, arr.max(axis=0))]
    radix = [2 * s + 1 for s in spans]
    # an axis of span 0 adds nothing, and its stride alone may pass int64
    strides = [math.prod(radix[i + 1:]) if s else 0 for i, s in enumerate(spans)]
    if sum(t * s for t, s in zip(strides, spans)) > np.iinfo(np.int64).max:
        raise ValueError("point differences do not fit in 64-bit integers")
    keys = (arr - lo) @ np.array(strides, dtype=np.int64)

    span = int(keys.max()) - int(keys.min())
    if span + 1 <= n * n:
        diffs, table = None, np.arange(-span, span + 1)
    else:
        table = (keys[None, :] - keys[:, None]).ravel()
        # sort in place and mask: numpy 2.4's hashing np.unique takes 20-35x longer here
        table.sort()
        diffs = table = table[np.concatenate(([True], table[1:] != table[:-1]))]
    # table is symmetric about its middle entry 0
    mid = len(table) // 2
    vals = np.empty(len(table), dtype=dtype)
    for i in range(mid, len(table), _TABLE_CHUNK):
        part = table[i:i + _TABLE_CHUNK]
        vals[i:i + len(part)] = coefficient(_decode(part, strides))
    vals[:mid] = vals[:mid:-1].conj()
    return vals, diffs, keys


def _gather(vals, diffs, rows, cols=None) -> np.ndarray:
    """The array whose [j,k] entry is the table entry at key difference
    cols[k] - rows[j] (cols defaults to rows), gathered _GATHER_ENTRIES entries
    at a time, so the index temporaries stay small; np.take copies the bits."""
    cols = rows if cols is None else cols
    out = np.empty((len(rows), len(cols)), dtype=vals.dtype)
    step = max(1, _GATHER_ENTRIES // len(cols))
    for i in range(0, len(rows), step):
        r = rows[i:i + step, None]
        idx = cols - (r - len(vals) // 2) if diffs is None else np.searchsorted(diffs, cols - r)
        # indices are in range; "raise" would buffer out
        np.take(vals, idx, out=out[i:i + step], mode="clip")
    return out


def _decode(keys, strides) -> np.ndarray:
    """The vectors that non-negative key differences code, one row each (at d = 1,
    the keys): from the first axis on, each digit is the quotient by the axis's
    nonzero stride, rounded so that the rest lies within half a stride of 0."""
    out = np.zeros((len(keys), len(strides)), dtype=np.int64)
    for i, t in enumerate(strides):
        if t:
            q, r = np.divmod(keys, t)
            up = r > t // 2
            out[:, i], keys = q + up, r - up * t
    return out


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    if (h := np.asarray(h)).dtype.kind not in "biufc":  # bool, int, float, complex: cast below
        raise ValueError(f"expected a numeric matrix, got dtype {h.dtype}")
    h = h.astype(_COMPLEX if h.dtype.kind == "c" else _REAL, copy=False)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not h.size:
        raise ValueError("expected a non-empty matrix")
    # row blocks against the matching column blocks, so no temporary is n x n
    scale, resid = 1.0, 0.0
    for i in range(0, len(h), _ROW_BLOCK):
        rows = h[i:i + _ROW_BLOCK]
        top = float(np.abs(rows).max())  # nan or inf if any entry is non-finite
        if not np.isfinite(top):
            raise ValueError("matrix has non-finite entries")
        scale = max(scale, top)
        resid = max(resid, float(np.abs(rows - h[:, i:i + _ROW_BLOCK].conj().T).max()))
    if resid > _HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: residual {resid:.3e}")
    return h


def extreme_eigs(h: np.ndarray) -> BoundsEstimate:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Raises if the input fails the Hermiticity residual check at 1e-12
    (relative to the largest entry).  The reported tol field estimates the
    eigensolver's achieved accuracy, max(n, 16)*eps*max|lambda|, and is at least 1e-12.
    """
    h = _check_hermitian(h)
    return _bounds([h.copy()], len(h))


@functools.cache
def _openblas() -> dict:
    """numpy's OpenBLAS symbols, all eleven or {} where the build lacks any (MKL, Accelerate,
    Windows): reductions by (two_stage, dtype), "stemr", ("potrf", dtype), ("potf2", dtype),
    threads "get", "set"."""
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return {}
    c = ctypes  # Fortran takes every argument by address, then each character's length
    chol, one, two, stemr = ((None, *[c.c_void_p] * k, *[c.c_size_t] * chars)
                             for k, chars in ((5, 1), (10, 1), (13, 2), (21, 2)))
    found = {}
    for key, name, (restype, *argtypes) in (
            ((False, _REAL), "dsytrd_64_", one), ((False, _COMPLEX), "zhetrd_64_", one),
            ((True, _REAL), "dsytrd_2stage_64_", two), ((True, _COMPLEX), "zhetrd_2stage_64_", two),
            ("stemr", "dstemr_64_", stemr),
            (("potrf", _REAL), "dpotrf_64_", chol), (("potrf", _COMPLEX), "zpotrf_64_", chol),
            (("potf2", _REAL), "dpotf2_64_", chol), (("potf2", _COMPLEX), "zpotf2_64_", chol),
            ("get", "openblas_get_num_threads64_", (c.c_int,)),
            ("set", "openblas_set_num_threads64_", (None, c.c_int))):
        if (fn := getattr(lib, "scipy_" + name, None)) is None:
            return {}
        fn.restype, fn.argtypes = restype, argtypes
        found[key] = fn
    return found


def _int(value):  # a Fortran INTEGER, by address: byref keeps the c_int64 alive for the call
    return ctypes.byref(ctypes.c_int64(value))


def _reduce(two_stage, a, de, ws, lwork, lhous) -> None:
    """?sytrd or ?hetrd, or with two_stage ?sytrd_2stage or ?hetrd_2stage, vect "N" (Bischof,
    Lang & Sun, TOMS 2000): uplo "L" on the C-ordered n x n a, read column-major as conj(a),
    with a's eigenvalues, reduced in place to the real tridiagonal (de[:n], de[n:2n-1]).
    ws holds tau, hous2, work in turn; lwork = lhous = -1 queries sizes into ws[n:n+2]."""
    n, size, info = len(de) // 2, ws.itemsize, ctypes.c_int64()
    d, tau = de.ctypes.data, ws.ctypes.data
    work = tau + (n + max(lhous, 1)) * size
    vect, hous = ((b"N",), (tau + n * size, _int(lhous))) if two_stage else ((), ())
    _openblas()[two_stage, ws.dtype](*vect, b"L", _int(n), a.ctypes.data, _int(n), d, d + 8 * n,
                                     tau, *hous, work, _int(lwork), ctypes.byref(info),
                                     *[1] * (len(vect) + 1))
    if info.value:
        raise np.linalg.LinAlgError(f"tridiagonal reduction failed: info {info.value}")


@functools.cache
def _workspace(two_stage, dtype, n) -> tuple[int, int]:
    """(lwork, lhous) of _reduce at n rows, by LAPACK's query, once per size."""
    ws = np.zeros(n + 2, dtype)  # the query reads no matrix and writes ws[n], ws[n+1]
    _reduce(two_stage, ws, np.zeros(2 * n), ws, -1, -1)
    return int(ws[n + 1].real), max(int(ws[n].real), 1)


def _extremes(a) -> tuple[float, float, str]:
    """(lambda_min, lambda_max, route) of the Hermitian a, from its upper triangle, and a is
    overwritten: _reduce, "one-stage" below _TWO_STAGE_MIN_N[dtype] rows, else "two-stage",
    then _stemr, jobz "N"; eigvalsh, UPLO "U", where _openblas() is empty."""
    n, dtype = len(a), (_COMPLEX if np.iscomplexobj(a) else _REAL)
    if not _openblas():
        w = np.linalg.eigvalsh(a, UPLO="U")
        return float(w[0]), float(w[-1]), "eigvalsh"
    two_stage = n >= _TWO_STAGE_MIN_N[dtype]
    a = np.require(a, dtype, "CAW")  # copies only another dtype or layout, or a read-only a
    lwork, lhous = _workspace(two_stage, dtype, n)
    de = np.empty(2 * n)
    _reduce(two_stage, a, de, np.empty(n + lhous + lwork, dtype), lwork, lhous)
    return *_stemr(de, b"N")[:2], ("two-stage" if two_stage else "one-stage")


def _stemr(de, jobz) -> tuple[float, float, np.ndarray | None]:
    """(lambda_1, lambda_n, z) of the real symmetric tridiagonal (de[:n], de[n:2n-1]) by
    dstemr (MRRR; Dhillon, Parlett & Vomel, TOMS 2006), range "I", for eigenvalue 1, then n,
    each on a fresh copy of de, which dstemr overwrites; z's rows are their unit eigenvectors
    for jobz b"V", else z is None.  The buffers share one array of doubles, (d, e), w, z,
    work, and one of integers, iwork, isuppz (an address lookup costs about 1 us), named
    through every call; the workspaces are the jobz "V" minimums, 18n doubles, 10n integers."""
    n, stemr = len(de) // 2, _openblas()["stemr"]
    f, i = np.empty(23 * n), np.empty(10 * n + 2, np.int64)
    p, q = f.ctypes.data, i.ctypes.data
    picks = []
    for row, k in enumerate((1, n)):
        f[:2 * n] = de
        m, info = ctypes.c_int64(), ctypes.c_int64()
        stemr(jobz, b"I", _int(n), p, p + 8 * n, p, p, _int(k), _int(k), ctypes.byref(m),
              p + 16 * n, p + 8 * (3 + row) * n, _int(n), _int(1), q + 80 * n, _int(0),
              p + 40 * n, _int(18 * n), q, _int(10 * n), ctypes.byref(info), 1, 1)
        if info.value or m.value != 1:
            raise np.linalg.LinAlgError(f"dstemr failed: info {info.value}, {m.value} eigenvalues")
        picks.append(float(f[2 * n]))
    return *picks, (f[3 * n:5 * n].reshape(2, n).copy() if jobz == b"V" else None)


def _cholesky_factors(a):
    """A screen bound to a: each call tells whether Cholesky completes on the upper triangle a
    then holds, as _extremes reads it.  Where _openblas() is full and a is float64 or
    complex128, C-ordered, aligned and writable, by ?potf2 up to _UNBLOCKED_MAX_N rows and
    ?potrf above, "L" on a read column-major, in place, with a's address, n and info bound
    once (the address keeps a alive); else by np.linalg.cholesky(a.T)."""
    if (blas := _openblas()) and a.dtype in (_REAL, _COMPLEX) and a.flags.carray:
        fn = blas["potf2" if len(a) <= _UNBLOCKED_MAX_N else "potrf", a.dtype]
        n, info = ctypes.c_int64(len(a)), ctypes.c_int64()
        args = (b"L", ctypes.byref(n), a.ctypes.data_as(ctypes.c_void_p), ctypes.byref(n),
                ctypes.byref(info), 1)
        return lambda: fn(*args) or info.value == 0  # fn returns None

    def factors():
        try:
            np.linalg.cholesky(a.T)
        except np.linalg.LinAlgError:
            return False
        return True
    return factors


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, one Python thread at a time, and
    restore the count; where _openblas() is empty, leave it alone."""
    blas = _openblas()
    with _BLAS_PIN:
        threads = blas["get"]() if blas else 1
        if threads != 1:
            blas["set"](1)
        try:
            yield
        finally:
            if threads != 1:
                blas["set"](threads)


def _bounds(parts, n: int, solver: str | None = None) -> BoundsEstimate:
    """Bounds of an n x n section from its Hermitian parts, the package's one
    eigenvalue solve: the extremes over every part (see _extremes), tol =
    max(max(n, 16)*eps*max|lambda|, 1e-12), and solver by the first part's dtype unless
    given.  The parts are used up: each is overwritten in place, so callers pass arrays
    they own.  Solves run on one BLAS thread, so their bits do not depend on the thread count."""
    with _one_blas_thread():
        lows, highs, routes = zip(*map(_extremes, parts))
    solver = solver or ("real-symmetric" if np.isrealobj(parts[0]) else "hermitian")
    # max(routes): "two-stage" > "one-stage" > "eigvalsh"
    return _estimate(min(lows), max(highs), n, solver, max(routes))


def _estimate(lo, hi, n, solver, driver) -> BoundsEstimate:
    achieved = max(n, 16) * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0)
    return BoundsEstimate(lambda_min=lo, lambda_max=hi, tol=float(max(achieved, _HERMITIAN_TOL)),
                          solver=solver, driver=driver)


def _slepian_vectors(n, w) -> np.ndarray:
    """The two extreme eigenvectors, as rows, of Slepian's tridiagonal T at n points and
    half-width w, d_j = ((n-1-2j)/2)^2 cos w and e_j = (j+1)(n-1-j)/2, by _stemr (jobz "V");
    T commutes with the prolate matrix sin(w (j-k))/(pi (j-k)) (Slepian 1978, Grunbaum 1981)."""
    j, de = np.arange(n), np.empty(2 * n)
    de[:n] = ((n - 1 - 2 * j) / 2) ** 2 * math.cos(w)
    de[n:2 * n - 1] = j[1:] * (n - j[1:]) / 2
    with _one_blas_thread():
        return _stemr(de, b"V")[2]  # its workspaces are freed before the correlation's buffers


def _rayleigh(c, v) -> np.ndarray:
    """Rayleigh quotients of v's rows for the Toeplitz M[j,k] = c[k-j], given c[m] for
    0 <= m < n and c[-m] = conj(c[m]): Mv is an FFT correlation of v with the 2n - 1
    coefficients, by real FFTs where c and v are real, in O(n log n) time and O(n) memory."""
    n = v.shape[1]
    coefficients = np.concatenate((c[:0:-1], c.conj()))  # m = n-1..-(n-1), as _table mirrors
    size = 2 * n  # (coefficients * v)[n-1:2n-1] is Mv, and no wrap-around reaches it
    real = np.isrealobj(coefficients) and np.isrealobj(v)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    mv = ifft(fft(coefficients, size) * fft(v, size), size)[:, n - 1:2 * n - 1]
    return np.sum(mv * v.conj(), axis=1).real / np.sum((v * v.conj()).real, axis=1)


def _prolate_bounds(step, n, length) -> BoundsEstimate:
    """Bounds of the section of n >= 3 points of a progression of `step` on one arc
    of `length`: R[j,k] = r(step (k-j)) is (2 pi/step) P(w), w = step length/2, with P
    the prolate matrix.  Slepian's tridiagonal commutes with P and has a simple spectrum,
    so its two extreme eigenvectors (see _slepian_vectors) are R's: in R's order, or
    reversed where w mod 2 pi passes pi.  Their Rayleigh quotients (see _rayleigh), with
    r(step m) for |m| < n, are R's extremes (README, Gram assembly)."""
    z = _slepian_vectors(n, step * length / 2)
    q = _rayleigh(centered_interval_coefficient(length, step * np.arange(n)), z)
    return _estimate(float(q.min()), float(q.max()), n, "prolate-tridiagonal", "stemr-vectors")


def _symbol_levels(step, spectrum):
    """[(mu, centre, half-width)] of the least and the greatest value of mu(u), the number of
    t in the arcs with step t = u mod 2 pi, each on the longest arc of the base circle where mu
    takes it; None where rounding could decide the count.  [a, b) covers u (qb - qa) + [u >= pa]
    - [u >= pb] times, (q, p) = divmod(step t, 2 pi), so mu is the sum of those q's, changed at
    each p by its net count.  A p errs by at most step 2 pi eps: bit-equal p's are one point, and
    distinct ones closer than _BREAK_ALLOWANCE around the circle, or a step whose error could
    reach half of it, give None.  Otherwise the points keep their true order, and mu between
    two of them is exact for the arcs' float ends."""
    if 2 * step * TWO_PI * np.finfo(float).eps >= _BREAK_ALLOWANCE:
        return None
    base, change = 0, {}
    for arc in spectrum.arcs:
        for t, sign in ((arc.start, 1), (arc.end, -1)):
            q, p = divmod(step * t, TWO_PI)
            base, change[p] = base - sign * int(q), change.get(p, 0) + sign
    ends = sorted(p for p, d in change.items() if d)
    if not ends:  # mu is constant
        return [(base, math.pi, math.pi)] * 2
    gaps = np.diff(ends + [ends[0] + TWO_PI])  # the arc from each point to the next
    if gaps.min() < _BREAK_ALLOWANCE:
        return None
    mu = base + np.cumsum([change[p] for p in ends])
    longest = [max(np.flatnonzero(mu == level), key=gaps.__getitem__)
               for level in (mu.min(), mu.max())]
    return [(int(mu[i]), ends[i] + gaps[i] / 2, gaps[i] / 2) for i in longest]


def _symbol_bounds(step, n, spectrum) -> BoundsEstimate | None:
    """Bounds of the section of n >= 3 points of a progression of `step` on several arcs,
    proven within tol of its extremes, or None.  G[j,k] = c(step (k-j)), so x^H G x is the
    integral of g |X|^2 du/2 pi over the base circle, X(u) = sum_k x_k e^{-iku}, with the symbol
    g = (2 pi/step) mu (see _symbol_levels): every section's spectrum lies in [A, B], g's
    essential extremes (Grenander & Szego 1958).  The Slepian vectors of each extreme level's
    longest arc, modulated to its centre, concentrate X on it; every Rayleigh quotient (see
    _rayleigh) lies in [lambda_min, lambda_max], so when the least is within tol of A and the
    greatest within tol of B, each is within tol of its extreme.  Otherwise None."""
    if (levels := _symbol_levels(step, spectrum)) is None:
        return None
    j = np.arange(n)
    v = np.concatenate([_slepian_vectors(n, w) * np.exp(1j * u * j) for _, u, w in levels])
    q = _rayleigh(spectrum.fourier_coefficient((step * j)[:, None]), v)
    b = _estimate(float(q.min()), float(q.max()), n, "toeplitz-symbol", "stemr-vectors")
    low, high = (TWO_PI / step * mu for mu, _, _ in levels)
    return b if b.lambda_min - low <= b.tol and high - b.lambda_max <= b.tol else None


def _section_bounds(points, spectrum) -> BoundsEstimate:
    """Bounds of _solved_gram(points, spectrum) for ints or d-tuples in any
    order, parsed once.  Where _openblas() is full, n >= 3 ints whose sorted
    steps are one s > 0 go, with no Gram, to _prolate_bounds on one arc (the
    full torus and an arc across 0 included), and to _symbol_bounds on several
    arcs, which leaves to the fold every section its bracket does not prove; a
    span past int64 goes on to _table, which refuses it.  Any other section is
    folded when it can be.  G is taken in sorted key order (see _table),
    the points' lexicographic order.  Each digit of p - lo lies in [0, span_i],
    so a digit of the sum of two lies in [0, 2*span_i], below the radix: the
    code is injective on sums, and keys_j + keys_{n-1-j} is the same for every
    j exactly when p_j + p_{n-1-j} is, when the set is point-symmetric.  Then
    G satisfies J G J = conj(G), J the exchange matrix.  With m = n//2,
    A[j,k] = G[j,k] and BJ[j,k] = G[j,n-1-k] for j, k < m, and x[j] = G[j,m],
    the unitary Q = [[I, iI], [J, -iJ]]/sqrt(2) (with a unit middle row and
    column when n is odd) takes G to the real symmetric Q^H G Q

        [[Re A + Re BJ,  sqrt2 Re x,  Im BJ - Im A],
         [.,             G[m,m],      sqrt2 Im x  ],
         [.,             .,           Re A - Re BJ]]

    (Lee, LAA 1980), solved as "centrohermitian-real".  A real G is
    centrosymmetric, the off-diagonal blocks vanish, and the two diagonal
    blocks are solved apart as "centrosymmetric-split" (Cantoni & Butler, LAA
    1976); _bounds solves the folds with tol for the full n.  G itself is
    never built: A, BJ and x are gathered from _solved_table a row block at a
    time, and only the triangle _extremes reads is written: every upper-triangle
    entry has the bits of the one sum or difference of two table values that G's
    quadrants would give.  Other sections are gathered whole and solved by _bounds
    with no Hermiticity check: _table builds G Hermitian bit for bit from finite coefficients.
    """
    arr = integer_points(points)
    if len(arr) >= 3 and arr.shape[1] == 1 and isinstance(spectrum, MultibandSet) and _openblas():
        x = np.sort(arr[:, 0])
        step, span = int(x[1]) - int(x[0]), int(x[-1]) - int(x[0])
        if step > 0 and span <= np.iinfo(np.int64).max and np.all(np.diff(x) == step):
            if spectrum.is_arc():
                return _prolate_bounds(step, len(x), spectrum.measure)
            if (b := _symbol_bounds(step, len(x), spectrum)) is not None:
                return b
    vals, diffs, keys = _solved_table(arr, spectrum)
    keys, n = np.sort(keys), len(keys)
    sums = keys + keys[::-1]  # in [0, 2^64 - 2], where int64's wrap-around is one to one
    if n < 2 or np.any(sums != sums[0]):
        return _bounds([_gather(vals, diffs, keys)], n)
    m, h = n // 2, n - n // 2  # h = m, plus the middle when n is odd
    real = np.isrealobj(vals)
    if real:
        plus, minus = np.empty((h, h)), np.empty((m, m))
    else:  # [[plus, k], [k^T, minus]], k^T left unwritten
        whole = np.empty((n, n))
        plus, k, minus = whole[:h, :h], whole[:h, h:], whole[h:, h:]
    cols = np.concatenate((keys[:m], keys[::-1][:m], keys[m:h]))  # A's columns, BJ's, then x's
    step = max(1, _GATHER_ENTRIES // len(cols))
    for i in range(0, m, step):
        rows = slice(i, min(i + step, m))
        a, bj, x = np.split(_gather(vals, diffs, keys[rows], cols), [m, 2 * m], axis=1)
        x = math.sqrt(2.0) * x
        np.add(a.real, bj.real, out=plus[rows, :m])
        np.subtract(a.real, bj.real, out=minus[rows])
        plus[rows, m:] = x.real
        if not real:
            np.subtract(bj.imag, a.imag, out=k[rows])
            k[m:, rows] = x.imag.T
        del a, bj, x  # free the block before the next one is gathered
    plus[m:, m:] = vals[len(vals) // 2].real  # G[m,m] = c(0), the table's middle entry
    if real:
        return _bounds([plus, minus], n, "centrosymmetric-split")
    return _bounds([whole], n, "centrohermitian-real")


def dual_system(h: np.ndarray) -> np.ndarray:
    """Inverse of a positive-definite Gram: the Gram of the biorthogonal system.

    Eigenvalues of the result are the reciprocals of the input's, swapped
    between min and max.  Raises on singular or indefinite input, lambda_min <= tol.
    """
    h = _check_hermitian(h)
    b = _bounds([h.copy()], len(h))  # inv needs h after the solve
    if b.lambda_min <= b.tol:
        raise ValueError(f"matrix is singular or indefinite: lambda_min={b.lambda_min:.3e}")
    with _one_blas_thread():  # so the bits do not depend on the thread count
        inv = np.linalg.inv(h)
    return (inv + inv.conj().T) / 2.0


@dataclass(frozen=True)
class GramCertificate:
    """Finite-section evidence for or against a Riesz lower bound."""

    source: str
    spectrum: MultibandSet
    schedule: tuple[int, ...]
    bounds: tuple[BoundsEstimate, ...]
    threshold: float
    drop_ratio: float
    refute_floor: float
    final_drop: float
    verdict: str

    @property
    def lambda_min(self) -> tuple[float, ...]:
        return tuple(b.lambda_min for b in self.bounds)

    @property
    def lambda_max(self) -> tuple[float, ...]:
        return tuple(b.lambda_max for b in self.bounds)

    def to_json(self) -> dict:
        volume = self.spectrum.total_volume
        return {
            "source": self.source,
            "S": self.spectrum.to_json(),
            "normalized": False,
            "schedule": list(self.schedule),
            "lambda_min": list(self.lambda_min),
            "lambda_max": list(self.lambda_max),
            "lambda_min_normalized": [v / volume for v in self.lambda_min],
            "lambda_max_normalized": [v / volume for v in self.lambda_max],
            "verdict": self.verdict,
            "threshold": self.threshold,
            "drop_ratio": self.drop_ratio,
            "refute_floor": self.refute_floor,
            "final_drop": self.final_drop,
            "eig_tol": max(b.tol for b in self.bounds),
            "note": FINITE_SECTION_NOTE,
        }

    def csv_text(self) -> str:
        lines = ["window,lambda_min,lambda_max"]
        for n, b in zip(self.schedule, self.bounds):
            lines.append(f"{n},{b.lambda_min!r},{b.lambda_max!r}")
        return "\n".join(lines) + "\n"


def _check_schedule(schedule) -> tuple[int, ...]:
    """certify's schedule as ints: non-empty, strictly increasing and positive, or ValueError."""
    schedule = integers(schedule, "schedule")
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] < 1:
        raise ValueError(f"schedule must be strictly increasing and positive, got {schedule}")
    return schedule


def certify(points, spectrum, threshold: float,
            schedule=DEFAULT_SCHEDULE, drop_ratio: float = DEFAULT_DROP_RATIO,
            source: str = "") -> GramCertificate:
    """Certify a candidate Riesz sequence by growing centered finite sections.

    Elements are ordered by (|x|, x) so the sections are nested and the
    extreme eigenvalues move monotonically.  Grams are unnormalized.  On a
    single arc the Gram is a diagonal unitary conjugate of the real symmetric
    R[j,k] = r(p_k - p_j) (see centered_interval_coefficient), so R is solved
    instead ("real-symmetric"; "hermitian" on several arcs).  A section cut from
    a progression on one arc is solved through Slepian's commuting tridiagonal
    in O(n log n) time ("prolate-tridiagonal"); on several arcs, where Rayleigh
    quotients come within tol of its symbol's extremes, as well
    ("toeplitz-symbol"); any other point-symmetric section is folded; see
    _section_bounds.
    Verdicts:

    * refuted      final lambda_min below refute_floor, 1e-6 of the ambient
                   volume -- the lower bound is numerically zero;
    * supported    final lambda_min >= threshold and the last-step relative
                   drop of lambda_min, final_drop, is at most drop_ratio;
    * inconclusive otherwise.

    final_drop is 0.0 for one section, and where the previous lambda_min is
    below refute_floor: a ratio to a numerical zero means nothing, and the
    final one, no larger, is refuted by the floor alone.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    schedule = _check_schedule(schedule)
    if not 0.0 <= drop_ratio < 1.0:
        raise ValueError("drop_ratio must be in [0, 1)")
    refute_floor = 1e-6 * spectrum.total_volume

    if isinstance(points, PointSet):
        x = points._values()  # increasing: int64, or Python ints where the window passes it
    else:
        elems = integers(points, "points")
        try:
            x = np.sort(np.array(elems, dtype=np.int64))
        except OverflowError:  # past int64, Python ints
            x = np.sort(np.array(elems, dtype=object))
        if np.any(x[1:] == x[:-1]):
            raise ValueError("duplicate elements")
    if schedule[-1] > len(x):
        raise ValueError(f"schedule needs {schedule[-1]} elements, have {len(x)}")
    # the schedule[-1] nearest 0 lie within schedule[-1] places of where 0 would go;
    # a stable sort of them by |x| gives the (|x|, x) order.  abs(-2**63) wraps in
    # int64, but not when read as uint64
    z = int(np.searchsorted(x, 0))
    x = x[max(0, z - schedule[-1]):z + schedule[-1]]
    order = np.argsort(np.abs(x).view(np.uint64) if x.dtype == np.int64 else np.abs(x),
                       kind="stable")
    x = x[order[:schedule[-1]]]

    bounds = [_section_bounds(x[:n], spectrum) for n in schedule]

    prev, last = bounds[-2 if len(bounds) > 1 else -1].lambda_min, bounds[-1].lambda_min
    final_drop = max(0.0, (prev - last) / prev) if prev >= refute_floor else 0.0
    if last < refute_floor:
        verdict = "refuted"
    elif last >= threshold and final_drop <= drop_ratio:
        verdict = "supported"
    else:
        verdict = "inconclusive"

    return GramCertificate(
        source=source, spectrum=spectrum, schedule=schedule, bounds=tuple(bounds),
        threshold=threshold, drop_ratio=drop_ratio, refute_floor=refute_floor,
        final_drop=final_drop, verdict=verdict,
    )

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
from .torus import MultibandSet, centered_interval_coefficient

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
_LAPACK_COL_MAJOR = 102
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
    point-symmetric section (see _section_bounds), and the driver: "two-stage"
    if any part took the two-stage reduction, else "one-stage" (see _extremes),
    or "eigvalsh" where numpy's LAPACK lacks the symbols."""

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
    h = np.asarray(h)
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
    eigensolver's achieved accuracy, n*eps*max|lambda|, and is at least 1e-12.
    """
    h = _check_hermitian(h)
    return _bounds([h.copy()], len(h))


@functools.cache
def _openblas() -> dict:
    """Symbols of numpy's OpenBLAS, less any the build lacks (MKL, Accelerate, Windows): the
    reductions by (two_stage, dtype), "stemr", ?potrf by ("potrf", dtype), threads "get", "set"."""
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return {}
    c = ctypes  # Fortran takes every argument by address, then each character's length
    one, two, stemr = ((None, *[c.c_void_p] * k, *[c.c_size_t] * chars)
                       for k, chars in ((10, 1), (13, 2), (21, 2)))
    potrf = (c.c_int64, c.c_int, c.c_char, c.c_int64, c.c_void_p, c.c_int64)  # LAPACKE, int64
    found = {}
    for key, name, (restype, *argtypes) in (
            ((False, _REAL), "dsytrd_64_", one), ((False, _COMPLEX), "zhetrd_64_", one),
            ((True, _REAL), "dsytrd_2stage_64_", two), ((True, _COMPLEX), "zhetrd_2stage_64_", two),
            ("stemr", "dstemr_64_", stemr),
            (("potrf", _REAL), "LAPACKE_dpotrf_work64_", potrf),
            (("potrf", _COMPLEX), "LAPACKE_zpotrf_work64_", potrf),
            ("get", "openblas_get_num_threads64_", (c.c_int,)),
            ("set", "openblas_set_num_threads64_", (None, c.c_int))):
        if (fn := getattr(lib, "scipy_" + name, None)) is not None:
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
    """(lambda_min, lambda_max, route) of the Hermitian a, which is overwritten:
    _reduce, "one-stage" below _TWO_STAGE_MIN_N[dtype] rows, else "two-stage",
    then dstemr (MRRR; Dhillon, Parlett & Vomel, TOMS 2006), jobz "N", range "I",
    for eigenvalue 1 alone, then n alone, each on a fresh copy of (d, e), which it
    overwrites.  Buffers share one array per dtype (an address lookup costs about
    1 us), named through every call; where numpy's LAPACK lacks a symbol, eigvalsh."""
    n, dtype, blas = len(a), (_COMPLEX if np.iscomplexobj(a) else _REAL), _openblas()
    two_stage = n >= _TWO_STAGE_MIN_N[dtype]
    if not {(two_stage, dtype), "stemr"} <= blas.keys():
        w = np.linalg.eigvalsh(a)
        return float(w[0]), float(w[-1]), "eigvalsh"
    a = np.require(a, dtype, "CAW")  # copies only another dtype or layout, or a read-only a
    lwork, lhous = _workspace(two_stage, dtype, n)
    de = np.empty(2 * n)
    _reduce(two_stage, a, de, np.empty(n + lhous + lwork, dtype), lwork, lhous)
    # (d, e), w, z, work; iwork, isuppz: the minimums for jobz "N"; vl, vu and z go unread
    f, i = np.empty(15 * n + 1), np.empty(8 * n + 2, np.int64)
    p, q = f.ctypes.data, i.ctypes.data
    picks = []
    for k in (1, n):
        f[:2 * n] = de
        m, info = ctypes.c_int64(), ctypes.c_int64()
        blas["stemr"](b"N", b"I", _int(n), p, p + 8 * n, p, p, _int(k), _int(k), ctypes.byref(m),
                      p + 16 * n, p + 24 * n, _int(1), _int(0), q + 64 * n, _int(0),
                      p + 24 * n + 8, _int(12 * n), q, _int(8 * n), ctypes.byref(info), 1, 1)
        if info.value or m.value != 1:
            raise np.linalg.LinAlgError(f"dstemr failed: info {info.value}, {m.value} eigenvalues")
        picks.append(float(f[2 * n]))
    return *picks, ("two-stage" if two_stage else "one-stage")


def _cholesky_factors(a) -> bool:
    """Whether Cholesky completes on the lower triangle of a: by np.linalg.cholesky, or by
    its own LAPACK call, ?potrf "L", in place if a is Fortran-ordered, aligned and writable."""
    potrf = _openblas().get(("potrf", a.dtype)) if a.T.flags.carray else None
    if potrf is not None:  # a is overwritten
        return potrf(_LAPACK_COL_MAJOR, b"L", len(a), a.ctypes.data, len(a)) == 0
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, one Python thread at a time, and
    restore the count; where "get" or "set" is missing, leave it alone."""
    blas = _openblas()
    get, put = blas.get("get"), blas.get("set")
    with _BLAS_PIN:
        threads = get() if get and put else 1
        if threads != 1:
            put(1)
        try:
            yield
        finally:
            if threads != 1:
                put(threads)


def _bounds(parts, n: int, solver: str | None = None) -> BoundsEstimate:
    """Bounds of an n x n section from its Hermitian parts, the package's one
    eigenvalue solve: the extremes over every part (see _extremes), tol =
    max(n*eps*max|lambda|, 1e-12), and solver by the first part's dtype unless
    given.  The parts are used up: each is overwritten in place, so callers
    pass arrays they own.  Solves run on one BLAS thread, so their bits do not
    depend on the thread count."""
    with _one_blas_thread():
        lows, highs, routes = zip(*map(_extremes, parts))
    lo, hi = min(lows), max(highs)
    solver = solver or ("real-symmetric" if np.isrealobj(parts[0]) else "hermitian")
    achieved = n * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0)
    return BoundsEstimate(lambda_min=lo, lambda_max=hi,
                          tol=float(max(achieved, _HERMITIAN_TOL)), solver=solver,
                          driver=max(routes))  # "two-stage" > "one-stage" > "eigvalsh"


def _section_bounds(points, spectrum) -> BoundsEstimate:
    """Bounds of _solved_gram(points, spectrum) for ints or d-tuples in any
    order, folded when it can be.  G is taken in sorted key order (see _table),
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
    never built: A and BJ are gathered from _solved_table a row block at a
    time, each folded entry is the one sum or difference of the same two table
    values that G's quadrants would give, and the blocks go straight into
    their places.  Other sections are gathered whole from the same table and
    solved by _bounds, without extreme_eigs' Hermiticity check: _table builds
    G Hermitian bit for bit from finite coefficients.
    """
    vals, diffs, keys = _solved_table(points, spectrum)
    keys, n = np.sort(keys), len(keys)
    sums = keys + keys[::-1]  # in [0, 2^64 - 2], where int64's wrap-around is one to one
    if n < 2 or np.any(sums != sums[0]):
        return _bounds([_gather(vals, diffs, keys)], n)
    m, h = n // 2, n - n // 2  # h = m, plus the middle when n is odd
    real = np.isrealobj(vals)
    if real:
        plus, minus = np.empty((h, h)), np.empty((m, m))
    else:  # [[plus, k], [k^T, minus]]
        whole = np.empty((n, n))
        plus, k, minus = whole[:h, :h], whole[:h, h:], whole[h:, h:]
    cols = np.concatenate((keys[:m], keys[::-1][:m]))  # A's columns, then BJ's
    step = max(1, _GATHER_ENTRIES // len(cols))
    for i in range(0, m, step):
        rows = slice(i, min(i + step, m))
        a, bj = np.hsplit(_gather(vals, diffs, keys[rows], cols), 2)
        np.add(a.real, bj.real, out=plus[rows, :m])
        np.subtract(a.real, bj.real, out=minus[rows])
        if not real:
            np.subtract(bj.imag, a.imag, out=k[rows])
            whole[h:, rows] = k[rows].T
        del a, bj  # free the block before the next one is gathered
    if h > m:
        col = _gather(vals, diffs, keys[:h], keys[m:h])[:, 0]  # G[j,m] for j <= m
        x = math.sqrt(2.0) * col[:m]
        plus[m, :m] = plus[:m, m] = x.real
        plus[m, m] = col[m].real
        if not real:
            k[m] = whole[h:, m] = x.imag
    if real:
        return _bounds([plus, minus], n, "centrosymmetric-split")
    return _bounds([whole], n, "centrohermitian-real")


def dual_system(h: np.ndarray) -> np.ndarray:
    """Inverse of a positive-definite Gram: the Gram of the biorthogonal system.

    Eigenvalues of the result are the reciprocals of the input's, swapped
    between min and max.  Raises on singular or indefinite input.
    """
    h = _check_hermitian(h)
    b = _bounds([h.copy()], len(h))  # inv needs h after the solve
    floor = max(len(h) * np.finfo(float).eps * max(abs(b.lambda_max), 1.0), 0.0)
    if b.lambda_min <= floor:
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


def certify(points, spectrum, threshold: float,
            schedule=DEFAULT_SCHEDULE, drop_ratio: float = DEFAULT_DROP_RATIO,
            source: str = "") -> GramCertificate:
    """Certify a candidate Riesz sequence by growing centered finite sections.

    Elements are ordered by (|x|, x) so the sections are nested and the
    extreme eigenvalues move monotonically.  Grams are unnormalized.  On a
    single arc the Gram is a diagonal unitary conjugate of the real symmetric
    R[j,k] = r(p_k - p_j) (see centered_interval_coefficient), so R is solved
    instead ("real-symmetric"; "hermitian" on several arcs).  A point-symmetric
    section, such as any cut from a progression, is folded; see _section_bounds.
    Verdicts:

    * refuted      final lambda_min below refute_floor, 1e-6 of the ambient
                   volume -- the lower bound is numerically zero;
    * supported    final lambda_min >= threshold and the last-step relative
                   drop of lambda_min is at most drop_ratio;
    * inconclusive otherwise.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    schedule = integers(schedule, "schedule")
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])) or schedule[0] < 1:
        raise ValueError(f"schedule must be strictly increasing and positive, got {schedule}")
    if not 0.0 <= drop_ratio < 1.0:
        raise ValueError("drop_ratio must be in [0, 1)")
    refute_floor = 1e-6 * spectrum.total_volume

    elems = integers(points, "points")
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate elements")
    if schedule[-1] > len(elems):
        raise ValueError(f"schedule needs {schedule[-1]} elements, have {len(elems)}")
    order = sorted(elems, key=lambda x: (abs(x), x))

    bounds = [_section_bounds(order[:n], spectrum) for n in schedule]

    if len(bounds) >= 2:
        prev, last = bounds[-2].lambda_min, bounds[-1].lambda_min
        if prev <= 0.0:
            final_drop = 0.0 if last >= prev else math.inf
        else:
            final_drop = max(0.0, (prev - last) / prev)
    else:
        final_drop = 0.0

    last = bounds[-1].lambda_min
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

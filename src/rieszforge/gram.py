"""Gram matrices of exponential systems and finite-section certificates.

For integer frequencies P and a spectrum S the Gram is G[j,k] = c(p_k - p_j)
with c the indicator Fourier coefficient of S.  Extreme eigenvalues of nested
centered finite sections bound the infinite system's Riesz constants from one
side only: lambda_min decreases and lambda_max increases as the section grows,
so a certificate is evidence, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadfield import integers
from .torus import MultibandSet

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
_CHECK_BLOCK = 64  # rows per block of the Hermiticity check
_HERMITIAN_TOL = 1e-12  # Hermiticity residual allowed, relative to the largest entry

FINITE_SECTION_NOTE = (
    "finite sections bound the infinite system's lower Riesz constant from "
    "above and its upper constant from below; 'supported' is numerical "
    "evidence, not a proof"
)


@dataclass(frozen=True)
class BoundsEstimate:
    """Extreme eigenvalues of one Hermitian section, with an accuracy estimate."""

    lambda_min: float
    lambda_max: float
    tol: float


def _frequency(key: int, radix: list[int], vector: bool):
    """Decode a key difference into the frequency it codes."""
    if not vector:
        return key
    digits = []
    for r in reversed(radix):
        digit = (key + r // 2) % r - r // 2
        digits.append(digit)
        key = (key - digit) // r
    return tuple(reversed(digits))


def build_gram(points, spectrum, normalized: bool = False) -> np.ndarray:
    """Hermitian Gram of the exponentials with frequencies `points` on `spectrum`.

    points is a sequence of ints (1-D) or of equal-length int tuples
    (multi-dim); spectrum is any object with fourier_coefficient and
    total_volume (a MultibandSet, or a BoxSet in higher dimension).  With
    normalized=True the matrix is divided by the ambient volume, so the full
    integer lattice would give the identity.

    Every dimension runs through one table of unique differences.  Points are
    coded to scalar keys by a balanced mixed-radix code (radix 2*span+1 per
    axis, first axis most significant).  The code is linear and injective on
    differences, and a key's sign is the sign of the difference's first
    nonzero component, so each non-negative key gets one coefficient and each
    negative key the conjugate of its mirror: G is Hermitian bit-for-bit.
    Raises ValueError when the points are not integers, or when they or their
    key differences do not fit in 64-bit integers.
    """
    points = list(points)
    if not points:
        raise ValueError("empty point set")
    vector = np.ndim(points[0]) > 0
    points = [integers(p, "point coordinates") for p in points] if vector \
        else integers(points, "points")
    try:
        arr = np.array(points, dtype=np.int64)
    except OverflowError:
        raise ValueError("points do not fit in 64-bit integers") from None
    arr = arr.reshape(len(arr), -1)
    lo = arr.min(axis=0)
    # spans, radices and strides in Python ints, so the range check cannot wrap
    spans = [int(b) - int(a) for a, b in zip(lo, arr.max(axis=0))]
    radix = [2 * s + 1 for s in spans]
    strides = [math.prod(radix[i + 1:]) for i in range(len(radix))]
    if sum(t * s for t, s in zip(strides, spans)) > np.iinfo(np.int64).max:
        raise ValueError("point differences do not fit in 64-bit integers")
    keys = (arr - lo) @ np.array(strides, dtype=np.int64)

    diff = keys[None, :] - keys[:, None]
    uniq = np.unique(diff)
    # diff is antisymmetric, so uniq is symmetric about its middle entry 0
    mid = len(uniq) // 2
    coeff = spectrum.fourier_coefficient
    vals = np.empty(len(uniq), dtype=complex)
    for i in range(mid, len(uniq)):
        vals[i] = coeff(_frequency(int(uniq[i]), radix, vector))
    vals[:mid] = vals[:mid:-1].conj()
    if normalized:
        vals = vals / spectrum.total_volume
    # searchsorted, with diff released before the gather, peaks lower than
    # np.unique(return_inverse=True)
    idx = np.searchsorted(uniq, diff)
    del diff
    return vals[idx]


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    # row blocks against the matching column blocks, so no temporary is n x n
    scale, resid = 1.0, 0.0
    for i in range(0, len(h), _CHECK_BLOCK):
        rows = h[i:i + _CHECK_BLOCK]
        scale = max(scale, float(np.abs(rows).max()))
        resid = max(resid, float(np.abs(rows - h[:, i:i + _CHECK_BLOCK].conj().T).max()))
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
    w = np.linalg.eigvalsh(h)
    achieved = len(w) * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]), 1.0)
    return BoundsEstimate(lambda_min=float(w[0]), lambda_max=float(w[-1]),
                          tol=float(max(achieved, _HERMITIAN_TOL)))


def dual_system(h: np.ndarray) -> np.ndarray:
    """Inverse of a positive-definite Gram: the Gram of the biorthogonal system.

    Eigenvalues of the result are the reciprocals of the input's, swapped
    between min and max.  Raises on singular or indefinite input.
    """
    h = _check_hermitian(h)
    w = np.linalg.eigvalsh(h)
    floor = max(len(w) * np.finfo(float).eps * max(abs(w[-1]), 1.0), 0.0)
    if w[0] <= floor:
        raise ValueError(f"matrix is singular or indefinite: lambda_min={w[0]:.3e}")
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
    extreme eigenvalues move monotonically.  Grams are unnormalized.  Verdicts:

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

    bounds = []
    for n in schedule:
        section = sorted(order[:n])
        g = build_gram(section, spectrum)
        bounds.append(extreme_eigs(g))

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

"""Per-entry indicator Fourier coefficients in CPython's scalar arithmetic
(cmath.exp, math.sin, Python complex), written apart from the package's array
formulas so that tests can compare the two bit for bit."""

import cmath
import math

import numpy as np


def interval(lo, hi, m):
    if m == 0:
        return complex(hi - lo)
    if m < 0:
        return interval(lo, hi, -m).conjugate()
    return (cmath.exp(-1j * m * lo) - cmath.exp(-1j * m * hi)) / (1j * m)


def centered(length, m):
    return float(length) if m == 0 else 2.0 * math.sin(m * length / 2.0) / m


def multiband(s, m):
    total = 0j
    for a in s.arcs:
        total += interval(a.start, a.end, m)
    return total


def box(b, m):
    total = 0j
    for sides in b.boxes:
        term = complex(1.0)
        for (lo, hi), mi in zip(sides, m):
            term *= interval(lo, hi, mi)
        total += term
    return total


def coefficient(spectrum, m):
    """The coefficient of a MultibandSet at an int, or of a BoxSet at an int tuple."""
    return box(spectrum, m) if hasattr(spectrum, "boxes") else multiband(spectrum, m)


def bits(values) -> np.ndarray:
    """The float64 bit patterns of a real or complex array, signed zeros included."""
    return np.asarray(values).view(np.float64).view(np.uint64)

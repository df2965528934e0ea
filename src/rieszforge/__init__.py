"""Deterministic constructions and empirical certificates for exponential
Riesz sequences on multiband subsets of the torus.

The package builds syndetic integer spectra from cut-and-project sets with
quadratic-irrational slopes, certifies lower/upper frame-style bounds through
nested Gram finite sections, and carries the linear-algebra side: Parseval
completions, Naimark complements, randomized one-per-block selections and
lattice partitions with covering guarantees.
"""

from .quadfield import QuadNum, quad_sign
from .torus import Arc, MultibandSet, TWO_PI, indicator_fourier, normalize_bands
from .quasicrystal import DensityStats, GapStats, PointSet, QCParams, \
    UnitInterval, choose_params, construct_riesz_set, density_stats, \
    gap_stats, generate, generate_centered, kahane_classify, landau_check
from .gram import BoundsEstimate, GramCertificate, build_gram, certify, \
    dual_system, extreme_eigs
from .frames import BlockSystem, SelectorConfig, SelectorResult, VectorSystem, \
    complete_to_parseval_small, naimark_complement, predicted_bessel_bound, \
    select_bessel, select_riesz, select_tight, stabilize
from .lattice import BoxSet, Cube, LatticeWindow, Segment, covering_radius, \
    cube_partition, cycling_partition, indicator_fourier_d, section_gaps, \
    section_report

__version__ = "0.1.0"

__all__ = [
    "QuadNum", "quad_sign",
    "Arc", "MultibandSet", "TWO_PI", "indicator_fourier", "normalize_bands",
    "DensityStats", "GapStats", "PointSet", "QCParams", "UnitInterval",
    "choose_params", "construct_riesz_set", "density_stats", "gap_stats",
    "generate", "generate_centered", "kahane_classify", "landau_check",
    "BoundsEstimate", "GramCertificate", "build_gram", "certify",
    "dual_system", "extreme_eigs",
    "BlockSystem", "SelectorConfig", "SelectorResult", "VectorSystem",
    "complete_to_parseval_small", "naimark_complement", "predicted_bessel_bound",
    "select_bessel", "select_riesz", "select_tight", "stabilize",
    "BoxSet", "Cube", "LatticeWindow", "Segment", "covering_radius",
    "cube_partition", "cycling_partition", "indicator_fourier_d",
    "section_gaps", "section_report",
    "__version__",
]

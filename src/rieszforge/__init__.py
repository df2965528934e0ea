"""Deterministic constructions and empirical certificates for exponential
Riesz sequences on multiband subsets of the torus.

The package builds syndetic integer spectra from cut-and-project sets with
quadratic-irrational slopes, certifies lower/upper frame-style bounds through
nested Gram finite sections, and carries the linear-algebra side: Parseval
completions, Naimark complements, randomized one-per-block selections and
lattice partitions with covering guarantees.
"""

from . import frames, gram, lattice, quadfield, quasicrystal, torus
from .quadfield import *
from .torus import *
from .quasicrystal import *
from .gram import *
from .frames import *
from .lattice import *

__version__ = "0.1.0"

__all__ = [*quadfield.__all__, *torus.__all__, *quasicrystal.__all__, *gram.__all__,
           *frames.__all__, *lattice.__all__, "__version__"]
